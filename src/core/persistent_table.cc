#include "core/persistent_table.hh"

#include "sim/logging.hh"

namespace tokencmp {

void
PersistentTable::insert(unsigned proc, Addr addr, bool is_read,
                        const MachineID &initiator, MsgSeq seq)
{
    Entry &e = _entries.at(proc);
    _numValid += e.valid ? 0 : 1;
    e.valid = true;
    e.marked = false;
    e.isRead = is_read;
    e.addr = blockAlign(addr);
    e.initiator = initiator;
    e.seq = seq;
}

void
PersistentTable::erase(unsigned proc)
{
    Entry &e = _entries.at(proc);
    _numValid -= e.valid ? 1 : 0;
    e = Entry{};
}

int
PersistentTable::activeFor(Addr addr) const
{
    if (_numValid == 0)
        return -1;
    const Addr blk = blockAlign(addr);
    for (unsigned p = 0; p < _entries.size(); ++p) {
        if (_entries[p].valid && _entries[p].addr == blk)
            return static_cast<int>(p);
    }
    return -1;
}

void
PersistentTable::markAllFor(Addr addr)
{
    if (_numValid == 0)
        return;
    const Addr blk = blockAlign(addr);
    for (auto &e : _entries) {
        if (e.valid && e.addr == blk)
            e.marked = true;
    }
}

bool
PersistentTable::anyMarkedFor(Addr addr) const
{
    if (_numValid == 0)
        return false;
    const Addr blk = blockAlign(addr);
    for (const auto &e : _entries) {
        if (e.valid && e.marked && e.addr == blk)
            return true;
    }
    return false;
}

} // namespace tokencmp
