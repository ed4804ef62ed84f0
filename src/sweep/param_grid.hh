/**
 * @file
 * Declarative parameter grid for sweep orchestration (modeled on
 * distexprunner-style experiment drivers): a JSON grid file crosses
 * config axes — policy x workload x shard map x named knob-override
 * sets x seeds — into an enumerable cell list
 * where every cell carries a stable 64-bit hash (the resume journal's
 * key) and the grid as a whole carries a fingerprint (so a journal
 * recorded against an edited grid is detected instead of silently
 * mixing results).
 *
 * Grid file shape (see docs/sweeps.md for the full reference;
 * bench/grids/paper_macro.json is a committed example):
 *
 *   {
 *     "name": "paper_macro",
 *     "policies": ["dst1", "dst-group", "directory"],
 *     "workloads": ["synthetic-oltp",
 *                   {"name": "locking", "label": "locks2",
 *                    "knobs": {"keys": 2}}],
 *     "shardMaps": ["serial"],            // optional, default
 *     "seeds": 2, "firstSeed": 1,
 *     "shardWorkers": 4,                  // threads per sharded cell
 *     "horizonNs": 500000000,
 *     "workloadKnobs": {"opsPerProc": 200, "theta": 0.95, ...},
 *     "overrides": [
 *       {"label": "default"},
 *       {"label": "smallpred",
 *        "knobs": {"token.cmpPredEntries": 64,
 *                  "token.cmpPredWays": 2}}
 *     ]
 *   }
 *
 * "policies" entries are configuration names, resolved by
 * SystemConfig::select(): PolicyRegistry names on the token substrate,
 * plus the protocol-table keys of the non-token rows ("directory",
 * "directory-zero", "perfect", "hier").
 * "workloads" entries are WorkloadRegistry names, or objects naming a
 * workload under a unique label with their own workloadKnobs keys,
 * laid over the grid's "workloadKnobs" key by key.
 * Every name (policies, workloads, knobs) is
 * validated against its registry at load time — a typo dies before
 * any cell simulates, not at 3am in cell 900.
 */

#ifndef TOKENCMP_SWEEP_PARAM_GRID_HH
#define TOKENCMP_SWEEP_PARAM_GRID_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "system/config.hh"

namespace tokencmp {

/** One named knob-override set (an "overrides" axis value). */
struct KnobOverride
{
    std::string label;  //!< unique within the grid ("default", ...)
    /** (knob name, value) pairs, sorted by name at load time. */
    std::vector<std::pair<std::string, double>> knobs;
};

/** One workload-axis value: a registry workload and the knobs its
 *  cells run (the grid's workloadKnobs under the entry's own). */
struct WorkloadEntry
{
    std::string label;     //!< unique on the axis; a plain entry's name
    std::string name;      //!< WorkloadRegistry name
    WorkloadParams knobs;  //!< merged knobs
    bool plain = true;     //!< given as a bare name in the grid file
};

/** One enumerated grid cell: a single (config, seed) simulation. */
struct SweepCell
{
    unsigned index = 0;        //!< position in grid enumeration order
    std::string policy;        //!< policy name or a protocol special
    std::string workload;      //!< WorkloadEntry::label
    std::string shardMap;      //!< "serial" | "perCmp"
    std::string overrideLabel; //!< KnobOverride::label
    std::uint64_t seed = 0;

    /** Canonical cell key: everything that determines the cell's
     *  result (config axes, knobs, workload knobs, horizon, seed) —
     *  deliberately NOT worker/process counts, which the determinism
     *  contract guarantees cannot move results. */
    std::string key;
    std::string hash;   //!< 16 lowercase hex chars of FNV-1a(key)
    std::string label;  //!< "policy/workload/map/override/sN"
};

/** A loaded, validated, enumerated grid. */
class ParamGrid
{
  public:
    /** Load from a grid file; fatal() on unreadable/invalid input. */
    static ParamGrid fromFile(const std::string &path);

    /** Load from JSON text; `what` names the source in diagnostics. */
    static ParamGrid fromJsonText(const std::string &text,
                                  const std::string &what);

    const std::string &name() const { return _name; }
    const std::vector<SweepCell> &cells() const { return _cells; }

    /** Stable hash of canonical(): detects grid edits vs a journal. */
    const std::string &fingerprint() const { return _fingerprint; }

    /** Canonical serialized grid definition (versioned; what the
     *  fingerprint covers). */
    const std::string &canonical() const { return _canonical; }

    /** The validated SystemConfig a cell runs (seed included).
     *  Called for every cell at load time too, so config-level
     *  validation failures surface at submission. */
    SystemConfig configFor(const SweepCell &cell) const;

    Tick horizon() const { return _horizon; }

    /** Cell lookup by hash; nullptr when the grid has no such cell. */
    const SweepCell *cellByHash(const std::string &hash) const;

    // Axis accessors (for reports and marginals).
    const std::vector<std::string> &policies() const { return _policies; }
    const std::vector<WorkloadEntry> &workloads() const { return _workloads; }
    const std::vector<std::string> &shardMaps() const { return _maps; }
    const std::vector<KnobOverride> &overrides() const { return _overrides; }
    unsigned seedsPerCell() const { return _seeds; }
    std::uint64_t firstSeed() const { return _firstSeed; }
    unsigned shardWorkers() const { return _shardWorkers; }

  private:
    ParamGrid() = default;

    void enumerate();  //!< cross the axes into _cells

    std::string _name;
    std::vector<std::string> _policies;
    std::vector<WorkloadEntry> _workloads;
    std::vector<std::string> _maps;
    std::vector<KnobOverride> _overrides;
    unsigned _seeds = 1;
    std::uint64_t _firstSeed = 1;
    unsigned _shardWorkers = 2;
    Tick _horizon = 0;
    std::uint64_t _horizonNs = 0;

    std::string _canonical;
    std::string _fingerprint;
    std::vector<SweepCell> _cells;
};

} // namespace tokencmp

#endif // TOKENCMP_SWEEP_PARAM_GRID_HH
