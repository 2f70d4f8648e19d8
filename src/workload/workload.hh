/**
 * @file
 * The workload library: synthetic models of the paper's seven
 * benchmarks (Section 3.1 and Table 3).
 *
 * | Paper workload | Model here                                     |
 * |----------------|------------------------------------------------|
 * | OLTP (DB2 +    | 5 TPC-C-like transaction types over warehouse/ |
 * | TPC-C)         | district/stock tables, B-tree index walks, row |
 * |                | locks, a serializing log, periodic log flushes |
 * |                | and a drifting buffer-pool working set         |
 * | Apache         | many short static-content requests: accept    |
 * |                | lock, Zipf-popular file reads, access log      |
 * | SPECjbb        | per-warehouse (per-thread) object churn with   |
 * |                | almost no sharing, plus sawtooth GC phases —   |
 * |                | time variability with negligible space         |
 * |                | variability (Figure 9b)                        |
 * | Slashcode      | few heavyweight dynamic-page builds under hot  |
 * |                | DB/template locks — the largest variability    |
 * | ECPerf         | 3-tier request chains through bean-pool locks  |
 * | Barnes-Hut     | barrier-phased tree walks, read-shared tree    |
 * | Ocean          | barrier-phased stencil with boundary sharing   |
 *
 * The per-thread op streams are pure functions of the workload seed;
 * all cross-run variation comes from timing (see program.hh).
 */

#ifndef VARSIM_WORKLOAD_WORKLOAD_HH
#define VARSIM_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "os/kernel.hh"
#include "workload/program.hh"

namespace varsim
{
namespace workload
{

/** The seven benchmarks of the paper. */
enum class WorkloadKind
{
    Oltp,
    Apache,
    SpecJbb,
    Slashcode,
    EcPerf,
    Barnes,
    Ocean,
};

/** Name of a workload kind ("OLTP", "Apache", ...). */
const char *kindName(WorkloadKind kind);

/**
 * Parse a workload name (case-insensitive; "jbb" is SPECjbb). Returns
 * false, leaving @p out untouched, on an unknown name.
 */
bool kindFromName(const std::string &name, WorkloadKind &out);

/** Workload construction parameters. */
struct WorkloadParams
{
    WorkloadKind kind = WorkloadKind::Oltp;

    /**
     * Seed of the workload's op streams. Fixed across the runs of an
     * experiment: the *same* workload is simulated every time; only
     * the timing perturbation seed varies per run.
     */
    std::uint64_t seed = 12345;

    /**
     * Software threads per processor. 0 selects the kind's default
     * (8 for the commercial workloads, matching the paper's 8 users
     * per processor; 1 for the scientific ones).
     */
    std::size_t threadsPerCpu = 0;

    /** Footprint / transaction-size scale factor. */
    double scale = 1.0;
};

/**
 * A built workload instance: owns the generators and per-thread
 * programs; the threads themselves are registered with (and owned
 * by) the kernel.
 */
class Workload : public sim::Serializable
{
  public:
    /**
     * Build workload @p params into @p kernel: creates regions,
     * locks, barriers, programs and threads.
     *
     * @param num_cpus    processors in the target system
     * @param block_bytes cache block size (for layout alignment)
     * @throws std::invalid_argument for invalid parameters
     *         (scale <= 0 or NaN)
     */
    static std::unique_ptr<Workload>
    build(const WorkloadParams &params, os::Kernel &kernel,
          std::size_t num_cpus, std::size_t block_bytes);

    const std::string &name() const { return name_; }
    std::size_t numThreads() const { return programs.size(); }

    /** Default measured-transaction count (paper Table 3, scaled). */
    std::uint64_t defaultTxnCount() const { return defaultTxns; }

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;

    // -- used by the per-kind builders --

    explicit Workload(std::string name) : name_(std::move(name)) {}

    /** Register a per-thread program (order = thread id order). */
    SyntheticProgram &addProgram(std::unique_ptr<SyntheticProgram> p);

    /** Set the default measured-transaction count. */
    void setDefaultTxnCount(std::uint64_t n) { defaultTxns = n; }

  private:
    std::string name_;
    std::vector<std::unique_ptr<SyntheticProgram>> programs;
    std::uint64_t defaultTxns = 200;
};

} // namespace workload
} // namespace varsim

#endif // VARSIM_WORKLOAD_WORKLOAD_HH
