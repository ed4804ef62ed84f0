/**
 * @file
 * Target-system configuration (paper Table 3) and protocol selection.
 */

#ifndef TOKENCMP_SYSTEM_CONFIG_HH
#define TOKENCMP_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/token_config.hh"
#include "directory/dir_config.hh"
#include "net/machine.hh"
#include "net/network.hh"
#include "workload/workload_params.hh"

namespace tokencmp {

/** Every protocol evaluated in the paper (Sections 6-8). */
enum class Protocol : unsigned char {
    DirectoryCMP,      //!< hierarchical MOESI directory, DRAM directory
    DirectoryCMPZero,  //!< unrealistic zero-cycle directory
    TokenArb0,         //!< persistent-only, arbiter activation
    TokenDst0,         //!< persistent-only, distributed activation
    TokenDst4,         //!< 1 transient + 3 retries
    TokenDst1,         //!< 1 transient, then persistent
    TokenDst1Pred,     //!< dst1 + contention predictor
    TokenDst1Filt,     //!< dst1 + external-request filter
    PerfectL2,         //!< infinite shared L2 lower bound
    HierCMP,           //!< directory between CMPs, tokens within
};

/** Printable protocol name (matches the paper's figures). */
const char *protocolName(Protocol p);

/** True for the TokenCMP variants. */
bool isToken(Protocol p);

/** All nine configurations. */
std::vector<Protocol> allProtocols();

/**
 * How the machine decomposes into shard domains for the sharded
 * kernel. The decomposition fixes the execution (it chooses the
 * per-domain event queues, RNG streams and window boundaries), so
 * every map is its own deterministic execution: runs are bit-identical
 * across worker counts *within* a map, not across maps.
 */
enum class ShardMapKind : unsigned char {
    /** One domain per CMP (the PR 3 decomposition): cross-domain
     *  lookahead bottoms out at the 20 ns inter-CMP link, but a
     *  2-CMP config can never use more than 2 workers. */
    PerCmp,
    /** One domain per processor's L1 I/D bank pair, plus one uncore
     *  domain (L2 banks + memory controller) per CMP: numCmps x
     *  (procsPerCmp + 1) domains, so the paper's 4-proc-per-CMP
     *  configs keep 8+ workers busy. Same-chip domain pairs window on
     *  the 2 ns intra-CMP crossbar latency. */
    PerL1Bank,
    /** Caller-supplied controller -> domain table (`domainOf`). */
    Explicit,
};

/** Printable shard-map name. */
const char *shardMapKindName(ShardMapKind k);

/** Shard-domain assignment for the sharded kernel. */
struct ShardMap
{
    ShardMapKind kind = ShardMapKind::PerCmp;

    /**
     * Explicit maps only: the shard domain of every controller,
     * indexed by Topology::globalIndex. Domains must be the dense
     * range [0, max+1), and a processor's L1 I and D banks must share
     * a domain (its sequencer couples them without network hops).
     */
    std::vector<unsigned> domainOf;

    /** Number of shard domains this map induces on `topo`. */
    unsigned numDomains(const Topology &topo) const;

    /**
     * Controller -> domain table in Topology::globalIndex order;
     * panics on invalid explicit maps (wrong size, domain gaps, an
     * L1 I/D pair split across domains).
     */
    std::vector<unsigned> domainTable(const Topology &topo) const;
};

/** Full system configuration; defaults reproduce Table 3. */
struct SystemConfig
{
    Protocol protocol = Protocol::TokenDst1;
    Topology topo{};  //!< 4 CMPs x 4 processors, 4 L2 banks

    std::uint64_t l1Bytes = 128 * 1024;
    unsigned l1Assoc = 4;
    std::uint64_t l2BankBytes = 2 * 1024 * 1024;  //!< 8 MB / 4 banks
    unsigned l2Assoc = 4;

    NetworkParams net{};
    TokenParams token{};
    DirParams dir{};

    /**
     * HierCMP only: soft cap on the blocks a shim holds chip rights
     * for before it starts chip-level evictions/writebacks to the home
     * directory (0 = unbounded). Per shim (L2 bank slot), so a CMP's
     * effective capacity is l2BanksPerCmp x this many blocks.
     */
    unsigned hierResidencyCap = 1024;

    std::uint64_t seed = 1;
    bool audit = true;  //!< token-conservation auditing

    /**
     * Event-kernel backend. TimingWheel is the fast default;
     * ReferenceHeap is the ordering oracle used by determinism
     * regression tests — both execute events in identical (tick, seq)
     * order, so results must be bit-identical.
     */
    SchedulerKind scheduler = SchedulerKind::TimingWheel;

    /**
     * Worker threads for the sharded parallel kernel. 0 (default)
     * runs the classic serial kernel. Any value >= 1 partitions the
     * machine into shard domains under `shardMap` — each with its own
     * EventQueue, RNG and network-link state — advanced in lock-step
     * conservative lookahead windows by min(shards, numDomains)
     * worker threads. For a fixed seed and a fixed shardMap the
     * sharded run is bit-identical for every worker count (the shard
     * decomposition is fixed; `shards` only chooses how many threads
     * drive it). PerfectL2 cannot run sharded (its magic L2 bypasses
     * the network).
     */
    unsigned shards = 0;

    /**
     * Shard-domain decomposition used when `shards > 0`. PerCmp (the
     * default) reproduces the PR 3 one-domain-per-CMP mapping;
     * PerL1Bank splits each CMP into per-processor L1 domains plus an
     * uncore domain so small-CMP-count configs still scale to many
     * workers. Each map is a distinct deterministic execution (see
     * ShardMapKind).
     */
    ShardMap shardMap{};

    /**
     * Keep the caller's hand-set token policy instead of the Table 1
     * preset implied by `protocol` (for ablations sweeping individual
     * policy knobs).
     */
    bool customPolicy = false;

    /**
     * Performance-policy selection by PolicyRegistry name ("dst1",
     * "dst1-pred", "bw-adapt", ...). Empty (the default) derives the
     * policy from `protocol`'s Table 1 preset — or from the hand-set
     * `token.policy` row under `customPolicy` — so the Protocol enum
     * remains a thin alias layer over the named plugins. Only
     * meaningful for token protocols; finalize() rejects it elsewhere.
     * An unknown name is diagnosed (listing every registered policy)
     * when the System is built.
     */
    std::string policyName;

    /**
     * Workload selection by WorkloadRegistry name ("locking", "zipf",
     * "phased", ...). Empty (the default) means the caller supplies a
     * workload object or factory directly, as before the registry
     * existed. When set, `Experiment` builds the workload from the
     * registry with `workloadParams`; finalize() validates the knob
     * table, and an unknown name is diagnosed (listing every
     * registered workload) when the workload is created.
     */
    std::string workloadName;

    /** Knob table for `workloadName` (skew, key count, write
     *  fraction, phase schedule, ...); validated in finalize(). */
    WorkloadParams workloadParams;

    /** Row/figure label: "TokenCMP-<policyName>" when a named policy
     *  is selected, protocolName(protocol) otherwise. */
    std::string displayName() const;

    /**
     * Apply protocol-specific knobs (Table 1 policies, dir latency).
     * Idempotent: a second call for the same protocol is a no-op, so a
     * caller may finalize, hand-tune individual knobs, and still pass
     * the config to `System` (which finalizes defensively) without the
     * presets being re-applied over the tuning. Changing `protocol`
     * re-arms finalization.
     */
    void finalize();

    /** Whether finalize() has been applied for the current protocol,
     *  policy and workload selection (changing any re-arms it, so the
     *  compatibility and knob checks cannot be bypassed by assigning
     *  after a finalize()). */
    bool finalized() const
    {
        return _finalized && _finalizedFor == protocol &&
               _finalizedPolicy == policyName &&
               _finalizedWorkload == workloadName;
    }

  private:
    bool _finalized = false;
    Protocol _finalizedFor = Protocol::TokenDst1;
    std::string _finalizedPolicy;
    std::string _finalizedWorkload;
};

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_CONFIG_HH
