/**
 * @file
 * Machine identifiers and system topology.
 *
 * The target machine follows the paper's Figure 1 / Table 3: `numCmps`
 * CMPs, each with `procsPerCmp` processors (split L1 I/D caches), a
 * shared L2 divided into `l2BanksPerCmp` address-interleaved banks, and
 * one off-chip memory controller per CMP. For token coherence, each
 * *cache* (L1I, L1D, L2 bank) is a token-holding node (Section 3.1).
 */

#ifndef TOKENCMP_NET_MACHINE_HH
#define TOKENCMP_NET_MACHINE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Kinds of coherence controllers in the system. */
enum class MachineType : std::uint8_t {
    L1I,     //!< per-processor instruction cache
    L1D,     //!< per-processor data cache
    L2Bank,  //!< one bank of the shared on-chip L2
    Mem,     //!< per-CMP off-chip memory controller (+ home directory)
};

/** Printable name of a machine type. */
const char *machineTypeName(MachineType t);

/** Identity of one coherence controller. */
struct MachineID
{
    MachineType type = MachineType::Mem;
    std::uint8_t cmp = 0;    //!< which CMP the machine belongs to
    std::uint8_t index = 0;  //!< processor number or L2 bank number

    bool
    operator==(const MachineID &o) const
    {
        return type == o.type && cmp == o.cmp && index == o.index;
    }
    bool operator!=(const MachineID &o) const { return !(*this == o); }

    std::string toString() const;
};

/**
 * Static system topology: machine enumeration, dense controller
 * indices, and the address-interleaving maps for L2 banks and homes.
 */
struct Topology
{
    unsigned numCmps = 4;
    unsigned procsPerCmp = 4;
    unsigned l2BanksPerCmp = 4;

    unsigned numProcs() const { return numCmps * procsPerCmp; }

    /** Controllers per CMP (L1 I+D pairs plus L2 banks). */
    unsigned
    cachesPerCmp() const
    {
        return 2 * procsPerCmp + l2BanksPerCmp;
    }

    /** Caches a given block can occupy within one CMP (2P L1s + 1 bank). */
    unsigned
    cachesPerCmpForBlock() const
    {
        return 2 * procsPerCmp + 1;
    }

    /** Caches a given block can occupy system-wide. */
    unsigned
    numCachesForBlock() const
    {
        return numCmps * cachesPerCmpForBlock();
    }

    /** Total number of controllers (caches + memory controllers). */
    unsigned
    numControllers() const
    {
        return numCmps * cachesPerCmp() + numCmps;
    }

    /** L2 bank index a block maps to (same index on every CMP). */
    unsigned
    l2BankOf(Addr a) const
    {
        return static_cast<unsigned>(blockNumber(a) % l2BanksPerCmp);
    }

    /** Home CMP (whose memory controller owns the block). */
    unsigned
    homeCmpOf(Addr a) const
    {
        return static_cast<unsigned>(
            (blockNumber(a) / l2BanksPerCmp) % numCmps);
    }

    MachineID
    l1d(unsigned cmp, unsigned proc) const
    {
        return {MachineType::L1D, std::uint8_t(cmp), std::uint8_t(proc)};
    }
    MachineID
    l1i(unsigned cmp, unsigned proc) const
    {
        return {MachineType::L1I, std::uint8_t(cmp), std::uint8_t(proc)};
    }
    MachineID
    l2(unsigned cmp, unsigned bank) const
    {
        return {MachineType::L2Bank, std::uint8_t(cmp),
                std::uint8_t(bank)};
    }
    MachineID
    mem(unsigned cmp) const
    {
        return {MachineType::Mem, std::uint8_t(cmp), 0};
    }

    /** Home memory controller for a block. */
    MachineID homeOf(Addr a) const { return mem(homeCmpOf(a)); }

    /** L2 bank responsible for a block within a given CMP. */
    MachineID
    l2BankFor(unsigned cmp, Addr a) const
    {
        return l2(cmp, l2BankOf(a));
    }

    /**
     * Dense index in [0, numControllers()) for table addressing.
     * Inline: this is on the per-message hot path (every send/deliver
     * maps src and dst through it).
     */
    unsigned
    globalIndex(const MachineID &id) const
    {
        const unsigned per_cmp = cachesPerCmp();
        switch (id.type) {
          case MachineType::L1D:
            return id.cmp * per_cmp + id.index;
          case MachineType::L1I:
            return id.cmp * per_cmp + procsPerCmp + id.index;
          case MachineType::L2Bank:
            return id.cmp * per_cmp + 2 * procsPerCmp + id.index;
          case MachineType::Mem:
            return numCmps * per_cmp + id.cmp;
        }
        panic("bad machine type");
    }

    /** Global processor id of an L1 cache (cmp * procsPerCmp + index). */
    unsigned
    procIdOf(const MachineID &id) const
    {
        if (id.type != MachineType::L1D && id.type != MachineType::L1I)
            panic("procIdOf on non-L1 machine");
        return id.cmp * procsPerCmp + id.index;
    }
};

/**
 * The cache and memory timing of paper Table 3 and the two sharing
 * optimizations every protocol family implements: one block for all
 * families, so a setting moves token, directory, PerfectL2 and hier
 * runs alike.
 */
struct MachineParams
{
    Tick l1Latency = ns(2);
    Tick l2Latency = ns(7);
    Tick memCtrlLatency = ns(6);
    Tick dramLatency = ns(80);

    /**
     * Response-delay window (Section 3.2, Rajwar-style): after a write
     * acquisition, hold the block against external requests long
     * enough to finish a short critical section. Bounded, so
     * starvation freedom is unaffected.
     */
    Tick responseDelay = ns(30);

    /** Migratory-sharing optimization (Section 2). */
    bool migratory = true;
};

} // namespace tokencmp

namespace std {

template <>
struct hash<tokencmp::MachineID>
{
    size_t
    operator()(const tokencmp::MachineID &id) const
    {
        return (static_cast<size_t>(id.type) << 16) ^
               (static_cast<size_t>(id.cmp) << 8) ^ id.index;
    }
};

} // namespace std

#endif // TOKENCMP_NET_MACHINE_HH
