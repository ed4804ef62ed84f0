/**
 * @file
 * Scrambled-Zipfian key generator, the record-popularity source of the
 * `oltp` workload. Ranks are drawn from a Zipfian distribution with
 * skew theta (Gray et al.'s rejection-free inversion, the YCSB
 * generator) and hash-scrambled into the key space, so the hottest
 * keys land on *different* L2 banks and home memory controllers
 * instead of clustering at the bottom of the address region.
 */

#ifndef TOKENCMP_WORKLOAD_ZIPF_HH
#define TOKENCMP_WORKLOAD_ZIPF_HH

#include "sim/random.hh"

namespace tokencmp {

/**
 * Zipfian rank generator over {0, ..., n-1} with P(rank = k)
 * proportional to 1/(k+1)^theta; theta in [0, 1) (0 = uniform). The
 * O(n) zeta-series precompute happens once at construction; draws are
 * O(1) and consume exactly one value from the caller's RNG, so a
 * generator instance is immutable and shareable across threads.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t n, double theta);

    /** Draw a rank (0 = hottest) using `rng`'s stream. */
    std::uint64_t nextRank(Random &rng) const;

    /** Exact probability of drawing `rank` (for tests). */
    double rankProbability(std::uint64_t rank) const;

    /** Hash-scramble a rank into {0, ..., n-1} so hot ranks spread
     *  across the key space (stable across runs; collisions merely
     *  merge two ranks onto one key, as in YCSB). */
    static std::uint64_t scramble(std::uint64_t rank, std::uint64_t n);

    std::uint64_t n() const { return _n; }
    double theta() const { return _theta; }

  private:
    std::uint64_t _n;
    double _theta;
    double _zetan;   //!< sum of 1/i^theta, i = 1..n
    double _alpha;   //!< 1 / (1 - theta)
    double _eta;     //!< Gray et al.'s tail-correction factor
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_ZIPF_HH
