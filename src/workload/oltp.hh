/**
 * @file
 * OLTP-style transaction workload: each processor runs a stream of
 * short transactions, every transaction touching a handful of records
 * drawn from a Zipfian-skewed record space (hash-scrambled, so hot
 * records spread across L2 banks). Each record access is a read or —
 * with probability writeFrac — a read-modify-write, modeling the
 * update-in-place record traffic of TPC-C-like mixes.
 *
 * Unlike the statistical `synthetic` proxy (which reproduces Barroso
 * et al.'s *class mix*), this generator has transaction structure and
 * a tunable hot-key skew — the shape under which destination-set
 * policies differentiate.
 */

#ifndef TOKENCMP_WORKLOAD_OLTP_HH
#define TOKENCMP_WORKLOAD_OLTP_HH

#include "workload/workload.hh"
#include "workload/workload_params.hh"
#include "workload/zipf.hh"

namespace tokencmp {

/** Parameters of the OLTP transaction workload. */
struct OltpParams
{
    unsigned txnsPerProc = 60;
    unsigned opsPerTxn = 6;       //!< record accesses per transaction
    std::uint64_t numRecords = 8192;
    double theta = 0.85;          //!< record-popularity skew
    double writeFrac = 0.25;      //!< RMW fraction per record access
    Tick thinkMean = ns(60);      //!< compute between transactions
    Tick recordThink = ns(8);     //!< compute between record accesses
    unsigned warmupTxns = 10;     //!< read-only warm-up transactions
    Addr base = 0x30000000;       //!< records at base + r*blockBytes
};

/** Zipf-skewed read/write transaction mix ("oltp" in the registry). */
class OltpWorkload : public Workload
{
  public:
    explicit OltpWorkload(const OltpParams &p = {});

    /** Construct from the registry knob table. */
    explicit OltpWorkload(const WorkloadParams &wp);

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override;

    std::unique_ptr<ThreadContext>
    makeWarmupThread(SimContext &ctx, Sequencer &seq,
                     unsigned num_procs, std::uint64_t seed) override;

    std::string name() const override { return "oltp"; }

    const OltpParams &params() const { return _p; }
    const ZipfGenerator &generator() const { return _gen; }

  private:
    OltpParams _p;
    ZipfGenerator _gen;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_OLTP_HH
