/**
 * @file
 * The WorkloadRegistry's shared knob table: a small set of named
 * parameters every registered workload interprets in its own units
 * (acquires, transactions, queue items...), so sweep drivers can vary
 * load shape without knowing concrete workload types. A zero or
 * negative value means "use the workload's default"; setting
 * a knob a workload does not consume is harmless (docs/sweeps.md,
 * "Workload knobs", says which workload reads which knob).
 *
 * Kept dependency-free (types + <string>) so SystemConfig can embed a
 * WorkloadParams without pulling the workload headers into every
 * translation unit that configures a system.
 */

#ifndef TOKENCMP_WORKLOAD_WORKLOAD_PARAMS_HH
#define TOKENCMP_WORKLOAD_WORKLOAD_PARAMS_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace tokencmp {

/** Named knobs consumed by registered workloads (0 / <0 = keep the
 *  workload's default). */
struct WorkloadParams
{
    /** Per-processor work quota: lock acquires (locking), barrier
     *  phases (barrier), memory ops (synthetic), transactions
     *  (oltp), queue items (prodcons). */
    unsigned opsPerProc = 0;

    /** Size of the contended object pool: locks (locking), records
     *  (oltp), migratory blocks (synthetic*), ring slots (prodcons). */
    unsigned keys = 0;

    /** Zipfian skew theta in [0, 1) (oltp); < 0 keeps the workload
     *  default. Higher is hotter: 0 is uniform, 0.99 is the classic
     *  YCSB hot-key distribution. */
    double theta = -1.0;

    /** Store fraction in [0, 1] (oltp, synthetic*); < 0 keeps the
     *  workload default. */
    double writeFrac = -1.0;

    /** Mean compute time between operations; 0 keeps the default. */
    Tick thinkMean = 0;

    /** Uniform +/- jitter on each compute time (barrier: work time
     *  thinkMean +/- U(thinkJitter)); 0 keeps it fixed. At most
     *  thinkMean, which must then be set explicitly. */
    Tick thinkJitter = 0;

    /** Warm-up operations per processor before measurement; < 0 keeps
     *  the workload default, 0 disables the warm-up phase. */
    int warmupOps = -1;

    /**
     * Panic with a workload-prefixed diagnostic if a knob is out of
     * range (theta >= 1, writeFrac > 1, thinkJitter > thinkMean).
     * Called by SystemConfig::validate() for named selections and
     * defensively by WorkloadRegistry::create().
     */
    void validate(const std::string &workload) const;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_WORKLOAD_PARAMS_HH
