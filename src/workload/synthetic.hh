/**
 * @file
 * Synthetic commercial-workload proxies (DESIGN.md §4 substitution).
 *
 * The paper evaluates Apache, OLTP (DB2/TPC-C) and SPECjbb2000 under
 * Simics/Solaris. Their protocol-relevant behaviour is the *class mix*
 * of memory references (Barroso et al. [4]): private-data capacity
 * misses, read-only hot sharing (code, metadata), and migratory
 * read-modify-write sharing of lock-protected records. This generator
 * reproduces those classes through the identical protocol code paths,
 * with per-workload mixes: OLTP is migratory-sharing dominated, Apache
 * intermediate, SPECjbb mostly private.
 */

#ifndef TOKENCMP_WORKLOAD_SYNTHETIC_HH
#define TOKENCMP_WORKLOAD_SYNTHETIC_HH

#include "workload/workload.hh"

namespace tokencmp {

/** Access-class mix of a synthetic commercial workload. */
struct SyntheticParams
{
    std::string label = "synthetic";
    unsigned opsPerProc = 400;

    Tick thinkMean = ns(50);   //!< compute between memory references

    /** Class probabilities (remainder goes to private accesses). */
    double migratoryFrac = 0.30;  //!< read-modify-write shared records
    double sharedReadFrac = 0.20; //!< read-only hot blocks (code/data)
    double ifetchFrac = 0.10;     //!< instruction fetches to hot code

    unsigned migratoryBlocks = 64;   //!< shared record pool
    unsigned sharedReadBlocks = 256; //!< hot read-only pool
    unsigned privateBlocks = 4096;   //!< per-processor working set

    double privateWriteFrac = 0.30;  //!< stores within private class

    Addr migratoryBase = 0x100000;
    Addr sharedBase = 0x200000;
    Addr privateBase = 0x10000000;   //!< per-proc regions spaced out
};

/** Paper Table 2 workload presets (see DESIGN.md for rationale),
 *  registered as synthetic-oltp, synthetic-apache and synthetic-jbb
 *  with the `synthetic` knob mapping on top. */
SyntheticParams oltpParams();
SyntheticParams apacheParams();
SyntheticParams jbbParams();

/** Statistical commercial-workload generator. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const SyntheticParams &p) : _p(p) {}

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override;

    std::string name() const override { return _p.label; }

    const SyntheticParams &params() const { return _p; }

  private:
    SyntheticParams _p;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_SYNTHETIC_HH
