/**
 * @file
 * Functional backing store: one 64-bit value per cache block.
 *
 * The simulator carries a functional value with every block so that the
 * workloads are *semantically* executed (locks really serialize,
 * barriers really gate) and correctness failures in a protocol surface
 * as wrong values, not just wrong timing. Modeling 8 of the 64 bytes is
 * enough because workloads address at block granularity.
 *
 * Only a block's home memory controller reads or writes its value, so
 * each home keeps its own store: under the sharded kernel no two shard
 * domains ever touch the same one, and it needs no lock.
 */

#ifndef TOKENCMP_MEM_BACKING_STORE_HH
#define TOKENCMP_MEM_BACKING_STORE_HH

#include <cstdint>

#include "mem/block_table.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Sparse functional memory image; every owner keeps its own. */
class BackingStore
{
  public:
    /** Current memory value of a block (0 if never written). */
    std::uint64_t
    read(Addr addr) const
    {
        const std::uint64_t *v = _mem.find(addr);
        return v == nullptr ? 0 : *v;
    }

    /** Update the memory image of a block. */
    void
    write(Addr addr, std::uint64_t v)
    {
        _mem.get(addr) = v;
    }

    /** Number of blocks ever written. */
    std::size_t
    footprint() const
    {
        return _mem.size();
    }

  private:
    BlockTable<std::uint64_t> _mem;
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_BACKING_STORE_HH
