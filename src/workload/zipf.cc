#include "workload/zipf.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tokencmp {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : _n(n), _theta(theta)
{
    if (n == 0)
        panic("zipf generator over an empty key space");
    if (theta < 0.0 || theta >= 1.0)
        panic("zipf theta %f out of range [0, 1)", theta);
    _zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        _zetan += 1.0 / std::pow(double(i), theta);
    _alpha = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    _eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / _zetan);
}

std::uint64_t
ZipfGenerator::nextRank(Random &rng) const
{
    // Gray et al., "Quickly generating billion-record synthetic
    // databases" (SIGMOD '94): invert the CDF with a closed-form
    // approximation whose two hottest ranks are handled exactly.
    const double u = rng.uniformDouble();
    const double uz = u * _zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, _theta))
        return 1;
    const double r =
        double(_n) * std::pow(_eta * u - _eta + 1.0, _alpha);
    std::uint64_t rank = std::uint64_t(r);
    return rank >= _n ? _n - 1 : rank;
}

double
ZipfGenerator::rankProbability(std::uint64_t rank) const
{
    return 1.0 / (std::pow(double(rank + 1), _theta) * _zetan);
}

std::uint64_t
ZipfGenerator::scramble(std::uint64_t rank, std::uint64_t n)
{
    // splitmix64 finalizer: a fixed bijective mix over 64 bits, then
    // reduced mod n (collisions fold ranks together, as in YCSB's
    // fnv-based scramble).
    std::uint64_t z = rank + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z % n;
}

} // namespace tokencmp
