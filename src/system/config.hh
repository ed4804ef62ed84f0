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

/**
 * The protocol families' table rows. A flat-token performance policy
 * (paper Table 1: dst1, dst1-pred, ...) is not a row: it is chosen by
 * `SystemConfig::policyName`.
 */
enum class Protocol : unsigned char {
    DirectoryCMP,      //!< hierarchical MOESI directory, DRAM directory
    DirectoryCMPZero,  //!< unrealistic zero-cycle directory
    /**
     * The flat TokenCMP family, running `policyName` (dst1 when it is
     * empty). Named for its default policy only because perfbench
     * selects it by this name; the next benchmark change renames it.
     */
    TokenDst1,
    PerfectL2,         //!< infinite shared L2 lower bound
    HierCMP,           //!< directory between CMPs, tokens within
};

/** The protocol families: each builds a complete System. */
enum class Family : unsigned char {
    Token,      //!< one token space over all CMPs (TokenCMP)
    Directory,  //!< MOESI directory within and between CMPs
    Perfect,    //!< the infinite shared L2 lower bound
    Hier,       //!< MOESI directory between CMPs, tokens within
};

/**
 * The one protocol table: what each `Protocol` means. A token
 * policy is always built by its PolicyRegistry name.
 */
struct ProtocolInfo
{
    Protocol protocol;
    const char *name;    //!< figure label (matches the paper's)
    const char *key;     //!< configuration name; nullptr for the token
                         //!< row, which is selected by policy name
    Family family;
    const char *policy;  //!< PolicyRegistry name; nullptr if none
};

/** The row for `p`. */
const ProtocolInfo &protocolInfo(Protocol p);

/** The row whose `key` is `key`; nullptr when none is. */
const ProtocolInfo *findProtocol(const std::string &key);

/** Printable protocol name (matches the paper's figures). */
const char *protocolName(Protocol p);

/** True for the flat TokenCMP family. */
bool isToken(Protocol p);

/**
 * The names of the paper's ten configurations, in the order the
 * figures list them; SystemConfig::select() accepts each.
 */
const std::vector<std::string> &allProtocols();

/**
 * Shard-domain decomposition for the sharded kernel. The only one is
 * PerCmp: every CMP is one domain, so every cross-domain message
 * crosses a 20 ns inter-CMP link.
 */
enum class ShardMapKind : unsigned char {
    PerCmp,
};

/**
 * Shard-map selection. It names the one decomposition there is, and
 * stays only because `perfbench/cell.cc` assigns it; drop it together
 * with that benchmark's sharded workload.
 */
struct ShardMap
{
    ShardMapKind kind = ShardMapKind::PerCmp;
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
    MachineParams machine{};  //!< Table 3 timing, shared by all families
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

    /**
     * Event-kernel backend. TimingWheel is the fast default;
     * ReferenceHeap is the ordering oracle used by determinism
     * regression tests — both execute events in identical (tick, seq)
     * order, so results must be bit-identical.
     */
    SchedulerKind scheduler = SchedulerKind::TimingWheel;

    /**
     * Worker threads for the sharded parallel kernel. 0 (default)
     * runs the classic serial kernel. Any value >= 1 makes every CMP
     * one shard domain — with its own EventQueue, RNG and network-link
     * state — advanced in lock-step conservative lookahead windows by
     * min(shards, numCmps) worker threads. For a fixed seed the
     * sharded run is bit-identical for every worker count (the domains
     * are fixed; `shards` only chooses how many threads drive them).
     * PerfectL2 cannot run sharded (its magic L2 bypasses the
     * network).
     */
    unsigned shards = 0;

    /** Shard-domain decomposition (always PerCmp; see ShardMap). */
    ShardMap shardMap{};

    /**
     * Performance-policy selection by PolicyRegistry name ("dst1",
     * "dst1-pred", "bw-adapt", ...). Empty (the default) uses the
     * policy of `protocol`'s table row. Only meaningful for the token
     * family; validate() rejects it elsewhere. An unknown name is
     * diagnosed (listing every registered policy) when the System is
     * built.
     */
    std::string policyName;

    /**
     * Workload selection by WorkloadRegistry name ("locking", "zipf",
     * "phased", ...). Empty (the default) means the caller supplies a
     * workload object or factory directly, as before the registry
     * existed. When set, `Experiment` builds the workload from the
     * registry with `workloadParams`; validate() checks the knob
     * table, and an unknown name is diagnosed (listing every
     * registered workload) when the workload is created.
     */
    std::string workloadName;

    /** Knob table for `workloadName` (skew, key count, write
     *  fraction, phase schedule, ...); checked by validate(). */
    WorkloadParams workloadParams;

    /**
     * The default (Table 3) configuration named `name`: a protocol
     * table key ("directory", "directory-zero", "perfect", "hier")
     * selects that row; any other name must be a PolicyRegistry
     * policy, run on the flat token family. Fatal, listing both
     * kinds of name, for anything else.
     */
    static SystemConfig select(const std::string &name);

    /** Row/figure label: "TokenCMP-<policyName>" when a named policy
     *  is selected, protocolName(protocol) otherwise. */
    std::string displayName() const;

    /** Fatal unless the selection and knobs are consistent: a policy
     *  name needs a token protocol, predictor geometries and the
     *  bw-adapt threshold must be valid, and a named workload's knobs
     *  must be in range. `System` checks every config it builds. */
    void validate() const;
};

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_CONFIG_HH
