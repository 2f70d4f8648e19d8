/**
 * @file
 * Host-side simulator-throughput benchmark: simulated ticks per host
 * second and transactions per host second, per workload, for one run
 * and for a multi-run experiment batch spread across host threads
 * (the methodology's parallel axis: independent perturbed runs).
 * Each workload runs on a 16-node directory system; OLTP also runs
 * on the paper's Table 5 target, 16 out-of-order CPUs on the
 * snooping bus (rows labelled "OLTP/snoop").
 *
 * This is the harness behind the perf trajectory of the repository:
 * the paper's methodology multiplies simulation cost by ~20x (runs x
 * checkpoints), so host throughput is the binding constraint on every
 * experiment. Emits machine-readable JSON (tools/perfcmp.py compares
 * two emissions) in addition to the human-readable table.
 *
 * Usage:
 *   bench_sim_throughput [--json FILE] [--workloads a,b,c]
 *                        [--repeat N]   (best-of-N timing)
 *
 * Environment:
 *   VARSIM_QUICK=1  scale down run lengths (~4x faster)
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "bench/common.hh"

namespace
{

using namespace varsim;

struct Row
{
    std::string workload;
    std::string mode;       ///< "single" or "multiN"
    std::size_t hostThreads;
    std::uint64_t simTicks;
    std::uint64_t txns;
    double wallSeconds;

    double ticksPerSec() const { return simTicks / wallSeconds; }
    double txnsPerSec() const { return txns / wallSeconds; }
};

struct WorkloadSpec
{
    std::string label;         ///< the record's "workload" field
    workload::WorkloadKind kind;
    std::uint64_t measureTxns; ///< full-mode measured transactions
    core::SystemConfig sys;
};

core::SystemConfig
directorySystem()
{
    // A 16-processor directory target: the largest system the
    // campaigns simulate, so the rows bound their per-run cost.
    core::SystemConfig sys;
    sys.mem.numNodes = 16;
    sys.mem.protocol = mem::CoherenceProtocol::Directory;
    return sys;
}

core::SystemConfig
snoopingSystem()
{
    // The paper's Table 5 target: 16 out-of-order processors on the
    // broadcast snooping bus.
    core::SystemConfig sys;
    sys.mem.numNodes = 16;
    sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
    return sys;
}

Row
singleRun(const WorkloadSpec &spec, int repeat)
{
    workload::WorkloadParams wl;
    wl.kind = spec.kind;

    core::RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = bench::scaleTxns(spec.measureTxns);
    rc.perturbSeed = 1;

    const core::SystemConfig &sys = spec.sys;

    // Best-of-N: host-side noise only ever slows a run down, so the
    // minimum wall time is the most repeatable estimate.
    double wall = 0;
    core::RunResult r;
    for (int rep = 0; rep < repeat; ++rep) {
        core::Simulation simn(sys, wl);
        simn.seedPerturbation(rc.perturbSeed);
        bench::Stopwatch sw;
        r = core::measure(simn, rc, sys.numCpus());
        const double w = sw.seconds();
        if (rep == 0 || w < wall)
            wall = w;
    }

    return {spec.label, "single", 1, r.runtimeTicks, r.txns, wall};
}

Row
multiRun(const WorkloadSpec &spec, std::size_t num_runs, int repeat)
{
    workload::WorkloadParams wl;
    wl.kind = spec.kind;

    core::RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = bench::scaleTxns(spec.measureTxns);

    core::ExperimentConfig exp;
    exp.numRuns = num_runs;
    exp.baseSeed = 1000;
    exp.hostThreads = 0; // hardware concurrency

    double wall = 0;
    std::vector<core::RunResult> results;
    for (int rep = 0; rep < repeat; ++rep) {
        bench::Stopwatch sw;
        results = core::runMany(spec.sys, wl, rc, exp);
        const double w = sw.seconds();
        if (rep == 0 || w < wall)
            wall = w;
    }

    std::uint64_t ticks = 0, txns = 0;
    for (const auto &r : results) {
        ticks += r.runtimeTicks;
        txns += r.txns;
    }
    std::ostringstream mode;
    mode << "multi" << num_runs;
    return {spec.label, mode.str(), exp.hostThreads, ticks, txns,
            wall};
}

/** One row of the record (bench::writeRecord). */
void
rowJson(std::ostream &os, const Row &r)
{
    os << "\"workload\": \"" << r.workload << "\", \"mode\": \""
       << r.mode << "\", \"host_threads\": " << r.hostThreads
       << ", \"sim_ticks\": " << r.simTicks
       << ", \"txns\": " << r.txns
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"ticks_per_sec\": " << r.ticksPerSec()
       << ", \"txns_per_sec\": " << r.txnsPerSec();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::string only;
    int repeat = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--workloads") == 0 &&
                 i + 1 < argc)
            only = argv[++i];
        else if (std::strcmp(argv[i], "--repeat") == 0 &&
                 i + 1 < argc)
            repeat = std::max(1, std::atoi(argv[++i]));
    }

    const std::vector<WorkloadSpec> specs = {
        {"OLTP", workload::WorkloadKind::Oltp, 2000,
         directorySystem()},
        {"Apache", workload::WorkloadKind::Apache, 8000,
         directorySystem()},
        {"SPECjbb", workload::WorkloadKind::SpecJbb, 8000,
         directorySystem()},
        {"Slashcode", workload::WorkloadKind::Slashcode, 200,
         directorySystem()},
        {"OLTP/snoop", workload::WorkloadKind::Oltp, 2000,
         snoopingSystem()},
    };

    bench::banner("bench_sim_throughput",
                  "simulator throughput (host-side)",
                  "not a paper figure: simulated ticks and txns per "
                  "host second, the denominator of every experiment");

    std::vector<Row> rows;
    for (const auto &spec : specs) {
        if (!only.empty() &&
            only.find(workload::kindName(spec.kind)) ==
                std::string::npos)
            continue;
        rows.push_back(singleRun(spec, repeat));
        const Row &s = rows.back();
        std::printf("%-10s %-8s %12.3fM ticks/s %10.0f txns/s "
                    "(%.2fs wall)\n",
                    s.workload.c_str(), s.mode.c_str(),
                    s.ticksPerSec() / 1e6, s.txnsPerSec(),
                    s.wallSeconds);
        rows.push_back(
            multiRun(spec, bench::scaleRuns(8), repeat));
        const Row &m = rows.back();
        std::printf("%-10s %-8s %12.3fM ticks/s %10.0f txns/s "
                    "(%.2fs wall)\n",
                    m.workload.c_str(), m.mode.c_str(),
                    m.ticksPerSec() / 1e6, m.txnsPerSec(),
                    m.wallSeconds);
    }

    bench::writeRecord(jsonPath, "sim_throughput", rows, rowJson);
    return 0;
}
