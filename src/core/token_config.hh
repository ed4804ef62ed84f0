/**
 * @file
 * Configuration of the token coherence substrate. The performance
 * policies (paper Table 1) are PolicyRegistry plugins (core/policy.hh);
 * the cache and memory timing every family shares is MachineParams
 * (net/machine.hh).
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

    /**
     * Timeout threshold = timeoutMult x EWMA(memory response latency),
     * clamped to a fixed range (TokenL1). Memory responses only:
     * averaging in fast on-chip hits caused retry bursts (Section 4).
     */
    double timeoutMult = 1.5;

    /**
     * dst1-pred contention-predictor table geometry (per-L1 tables).
     * `entries` must be a nonzero multiple of `ways`; validated in
     * SystemConfig::validate() so sweep drivers can search geometries
     * without recompiling.
     */
    unsigned contentionEntries = 256;
    unsigned contentionWays = 4;

    /** dst-group sharer-group table geometry (per-L2-bank tables);
     *  same multiple-of-ways constraint. */
    unsigned cmpPredEntries = 512;
    unsigned cmpPredWays = 4;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_CONFIG_HH
