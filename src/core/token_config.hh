/**
 * @file
 * Configuration of the token coherence substrate. The performance
 * policies (paper Table 1) are PolicyRegistry plugins (core/policy.hh).
 */

#ifndef TOKENCMP_CORE_TOKEN_CONFIG_HH
#define TOKENCMP_CORE_TOKEN_CONFIG_HH

#include "sim/types.hh"

namespace tokencmp {

/** Persistent-request activation mechanisms (Section 3.2). */
enum class PersistentActivation : unsigned char {
    Arbiter,      //!< original arbiter-based scheme at home memory
    Distributed,  //!< new distributed activation with marking/waves
};

/** Substrate-wide parameters. */
struct TokenParams
{
    /**
     * Tokens per block, T. Must exceed the number of caches that can
     * hold a block (36 in the 4x4 target) so persistent *read* requests
     * are guaranteed to obtain a token (Section 3.2).
     */
    int totalTokens = 49;

    /**
     * Tokens included in an inter-CMP read response when possible
     * ("C is the number of caches on a CMP node", Section 4).
     */
    int cTokens = 9;

    /** Enable the migratory-sharing token-transfer optimization. */
    bool migratory = true;

    /** Cache/controller access latencies (paper Table 3). */
    Tick l1Latency = ns(2);
    Tick l2Latency = ns(7);
    Tick memCtrlLatency = ns(6);
    Tick dramLatency = ns(80);

    /**
     * Timeout threshold = timeoutMult x EWMA(memory response latency),
     * clamped to [timeoutMin, timeoutMax]. Seeded at timeoutInitial.
     * Memory responses only: averaging in fast on-chip hits caused
     * retry bursts (Section 4).
     */
    double timeoutMult = 1.5;
    Tick timeoutInitial = ns(250);
    Tick timeoutMin = ns(100);
    Tick timeoutMax = ns(4000);

    /**
     * Response-delay window (Section 3.2, Rajwar-style): after a write
     * acquisition, hold tokens against external theft long enough to
     * finish a short critical section. Bounded, so starvation freedom
     * is unaffected.
     */
    Tick responseDelay = ns(30);

    /**
     * dst1-pred contention-predictor table geometry (per-L1 tables).
     * `entries` must be a nonzero multiple of `ways`; validated in
     * SystemConfig::validate() so sweep drivers can search geometries
     * without recompiling.
     */
    unsigned contentionEntries = 256;
    unsigned contentionWays = 4;

    /** dst-owner / bw-adapt CMP-owner predictor table geometry
     *  (per-L2-bank tables); same multiple-of-ways constraint. */
    unsigned cmpPredEntries = 512;
    unsigned cmpPredWays = 4;

    /**
     * bw-adapt: inter-CMP link utilization (EWMA occupancy fraction in
     * [0, 1]) above which escalations fall back to broadcast instead
     * of trusting the owner prediction.
     */
    double bwBusyUtil = 0.01;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_CONFIG_HH
