#include "hier/hier_l1.hh"

#include "sim/logging.hh"

namespace tokencmp {

HierL1::HierL1(SimContext &ctx, MachineID id, TokenGlobals &g,
               std::uint64_t size_bytes, unsigned assoc)
    : TokenL1(ctx, id, g, size_bytes, assoc)
{
}

void
HierL1::handleMsg(const Msg &msg)
{
    // The shim recalls intra-CMP tokens with an Inv; everything else
    // is the flat token substrate.
    if (msg.type == MsgType::Inv) {
        onRecall(msg);
        return;
    }
    TokenL1::handleMsg(msg);
}

void
HierL1::onRecall(const Msg &m)
{
    const Addr addr = blockAlign(m.addr);
    Line *line = _array.probe(addr);
    if (line == nullptr)
        return;
    TokenSt &st = line->st;
    const bool down = m.isRead;  // downgrade: surrender ownership only
    const Tick lat = g.machine.l1Latency;

    if (down) {
        // The shim needs the owner token (and the authoritative data)
        // so it can answer an external Fwd-GetS; plain tokens stay and
        // the line remains readable.
        if (!st.owner)
            return;
        ++hierStats.recallsDown;
        giveTokens(st, MsgType::TokResponse, addr, m.requestor, 1, true,
                   true, lat);
        st.locallyModified = false;
        if (st.tokens == 0 && !_txns.find(addr))
            _array.invalidate(line);
        return;
    }

    // Full recall: dump every token. This overrides the response-delay
    // hold — the external request already won arbitration at the home
    // directory. An outstanding local transaction keeps the line
    // installed as its landing slot; its tokens go back too (it will
    // re-gather them, ultimately from the shim after its refetch).
    if (st.tokens == 0 && !st.owner) {
        if (!_txns.find(addr) && st.validData) {
            // Token-less valid-data line: nothing to send, just drop.
            _array.invalidate(line);
        }
        return;
    }
    ++hierStats.recallsFull;
    giveTokens(st, MsgType::TokResponse, addr, m.requestor, st.tokens,
               st.owner, st.owner, lat);
    st = TokenSt{};
    if (!_txns.find(addr))
        _array.invalidate(line);
}

} // namespace tokencmp
