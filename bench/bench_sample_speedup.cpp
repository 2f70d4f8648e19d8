/**
 * @file
 * Sampling speedup benchmark: end-to-end wall time and accuracy of a
 * sampled run (functional-warming fast-forward + detailed windows)
 * against the same run in full detail.
 *
 * Two cases, deliberately different in character:
 *
 *  - apache (headline, gated): 16-node directory-protocol OoO — the
 *    miss-dominated configuration where detailed simulation is most
 *    expensive and the lock-light op mix keeps the fast engine out
 *    of the trap path. Target: >= 5x end-to-end speedup at <= 2%
 *    IPC error.
 *  - oltp (informational): 8-node snooping OoO — lock-heavy, so the
 *    fast engine is bounded by tick-accurate syscall traps and the
 *    speedup is modest (~2x) even though the estimate stays accurate.
 *    Reported to show the workload dependence; not gated.
 *
 * The full-detail IPC reference is computed through the controller
 * as a single all-detail window (U = M, W = 0), so the error column
 * compares identical phases under identical boundary conventions.
 * A fast-only row (one token measurement window) records the fast
 * engine's throughput ceiling next to the detailed engine's.
 *
 * Usage:
 *   bench_sample_speedup [--json FILE] [--repeat N]
 *
 * Environment:
 *   VARSIM_QUICK=1  scale down run lengths (~4x faster); the target
 *                   gate is skipped — too few windows survive the
 *                   scaling for the estimate to be meaningful.
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace
{

using namespace varsim;

struct Row
{
    std::string workload;
    std::string mode; ///< "full", "fast" or "sampled"
    std::uint64_t simTicks;
    std::uint64_t txns;
    double wallSeconds;
    double ipc;

    double ticksPerSec() const { return simTicks / wallSeconds; }
    double txnsPerSec() const { return txns / wallSeconds; }
};

struct Case
{
    workload::WorkloadKind kind;
    core::SystemConfig sys;
    std::uint64_t txns;
    std::string spec; ///< sampled-run design
    bool gated;       ///< headline case: enforce the 5x/2% target
};

std::vector<Case>
benchCases()
{
    // Headline: the configuration the sampling engine exists for —
    // detailed per-miss event traffic is the dominant simulation
    // cost, and the directory's targeted warm snoops keep the warm
    // path O(sharers) instead of O(nodes).
    core::SystemConfig apache = core::SystemConfig::paperDefault();
    apache.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
    apache.mem.protocol = mem::CoherenceProtocol::Directory;

    core::SystemConfig oltp;
    oltp.mem.numNodes = 8;
    oltp.cpu.model = cpu::CpuConfig::Model::OutOfOrder;

    return {
        {workload::WorkloadKind::Apache, apache,
         bench::scaleTxns(16000), "stratified:2000:16:64", true},
        {workload::WorkloadKind::Oltp, oltp, bench::scaleTxns(8000),
         "stratified:1000:30:100", false},
    };
}

core::RunConfig
baseRun(std::uint64_t txns)
{
    core::RunConfig rc;
    // Detailed warmup before measuring starts: both sides of the
    // comparison begin from the same warmed state, so the error
    // column is sampling error, not cold-start phase mismatch.
    rc.warmupTxns = 100;
    rc.measureTxns = txns;
    rc.perturbSeed = 1;
    return rc;
}

Row
timedRun(const Case &c, const std::string &spec, const char *mode,
         int repeat)
{
    workload::WorkloadParams wl;
    wl.kind = c.kind;

    core::RunConfig rc = baseRun(c.txns);
    if (!core::SampleConfig::parse(spec, rc.sample))
        sim::panic("bad sample spec '%s'", spec.c_str());

    double wall = 0;
    core::RunResult r;
    for (int rep = 0; rep < repeat; ++rep) {
        bench::Stopwatch sw;
        r = core::runOnce(c.sys, wl, rc);
        const double w = sw.seconds();
        if (rep == 0 || w < wall)
            wall = w;
    }
    return {workload::kindName(c.kind), mode, r.runtimeTicks, r.txns,
            wall, r.sampled.ipcMean};
}

void
emitJson(std::ostream &os, const std::vector<Row> &rows)
{
    os << "{\n  \"bench\": \"sample_speedup\",\n"
       << "  \"quick\": " << (bench::quick() ? "true" : "false")
       << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        os << "    {\"workload\": \"" << r.workload
           << "\", \"mode\": \"" << r.mode
           << "\", \"sim_ticks\": " << r.simTicks
           << ", \"txns\": " << r.txns
           << ", \"wall_seconds\": " << r.wallSeconds
           << ", \"ticks_per_sec\": " << r.ticksPerSec()
           << ", \"txns_per_sec\": " << r.txnsPerSec() << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    int repeat = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--repeat") == 0 &&
                 i + 1 < argc)
            repeat = std::max(1, std::atoi(argv[++i]));
    }

    bench::banner(
        "bench_sample_speedup",
        "intra-run sampling: speedup vs full detail (OoO model)",
        "SMARTS-style result: a large cost cut at a few percent "
        "error; target >= 5x at <= 2% IPC on the headline case");

    std::vector<Row> rows;
    bool allMet = true;
    for (const Case &c : benchCases()) {
        // Full detail, measured through a single all-detail window
        // so its IPC is directly comparable to the sampled estimate.
        const std::string refSpec =
            "systematic:" + std::to_string(c.txns) + ":0:" +
            std::to_string(c.txns);
        rows.push_back(timedRun(c, refSpec, "full", repeat));
        const Row f = rows.back();

        // Fast-engine throughput ceiling: fast-forward everything
        // except one token window.
        const std::string fastSpec =
            "systematic:" + std::to_string(c.txns) + ":10:15";
        rows.push_back(timedRun(c, fastSpec, "fast", repeat));
        const Row ff = rows.back();

        rows.push_back(timedRun(c, c.spec, "sampled", repeat));
        const Row s = rows.back();

        const double speedup = f.wallSeconds / s.wallSeconds;
        const double err = std::abs(s.ipc - f.ipc) / f.ipc;
        const bool met = speedup >= 5.0 && err <= 0.02;
        if (c.gated && !bench::quick())
            allMet = allMet && met;
        std::printf("%-8s full    %8.3fs  IPC %.4f\n",
                    f.workload.c_str(), f.wallSeconds, f.ipc);
        std::printf("%-8s fast    %8.3fs  (ceiling %.1fx)\n",
                    ff.workload.c_str(), ff.wallSeconds,
                    f.wallSeconds / ff.wallSeconds);
        std::printf("%-8s sampled %8.3fs  IPC %.4f  "
                    "speedup %.1fx  err %.2f%%  [%s]\n",
                    s.workload.c_str(), s.wallSeconds, s.ipc,
                    speedup, 100.0 * err,
                    !c.gated ? "informational"
                    : met    ? "ok"
                             : "MISSED TARGET");
    }

    if (!jsonPath.empty()) {
        std::ofstream fo(jsonPath);
        emitJson(fo, rows);
        std::printf("wrote %s\n", jsonPath.c_str());
    } else {
        emitJson(std::cout, rows);
    }
    return allMet ? 0 : 1;
}
