/**
 * @file
 * Warm-up amortization benchmark: restoring a warm-up state from the
 * persistent checkpoint library versus re-simulating it from boot.
 *
 * The paper's methodology (Section 3.2.2) reuses each warmed state
 * for every perturbation seed; the library makes that reuse durable
 * across processes. This benchmark quantifies the payoff on a grid
 * of (system configuration x checkpoint position) cells and verifies
 * the contract behind it: the snapshot served from disk is bitwise
 * the one the warmer produced.
 *
 * Emits rows in the bench_sim_throughput JSON schema so
 * tools/perfcmp.py can compare two emissions; ticks/txns of a
 * "restore" row are the warm-equivalent work delivered (the same
 * simulated distance as its "rewarm" twin), so ticks_per_sec reads
 * as warm-up ticks delivered per host second in both modes. Every
 * row also carries its cell's snapshot_bytes, the checkpoint
 * payload's exact size, which two emissions compare without the
 * walls' noise.
 *
 * Exits nonzero if any cell's snapshot mismatches or if restoring
 * the whole grid is not faster than re-warming it.
 *
 * Usage:
 *   bench_ckpt_restore [--json FILE] [--repeat N] [--keep-dir DIR]
 *
 * The full grid runs in under a second, so VARSIM_QUICK does not
 * shrink it (shallow warm-ups are boot-dominated and say nothing
 * about restore vs re-warm); the flag is still recorded in the JSON
 * so perfcmp.py can warn on mixed comparisons.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "bench/common.hh"
#include "ckpt/library.hh"

namespace
{

using namespace varsim;

struct Row
{
    std::string cell; ///< "OLTP/<config>@<position>"
    std::string mode; ///< "rewarm" or "restore"
    std::uint64_t simTicks;
    std::uint64_t txns;
    double wallSeconds;
    std::uint64_t snapshotBytes; ///< the cell's checkpoint payload

    double ticksPerSec() const { return simTicks / wallSeconds; }
    double txnsPerSec() const { return txns / wallSeconds; }
};

struct ConfigCell
{
    const char *name;
    core::SystemConfig sys;
};

workload::WorkloadParams
benchWorkload()
{
    workload::WorkloadParams wl;
    wl.kind = workload::WorkloadKind::Oltp;
    wl.threadsPerCpu = 2;
    return wl;
}

/** One row of the record (bench::writeRecord). */
void
rowJson(std::ostream &os, const Row &r)
{
    os << "\"workload\": \"" << r.cell << "\", \"mode\": \"" << r.mode
       << "\", \"sim_ticks\": " << r.simTicks
       << ", \"txns\": " << r.txns
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"ticks_per_sec\": " << r.ticksPerSec()
       << ", \"txns_per_sec\": " << r.txnsPerSec()
       << ", \"snapshot_bytes\": " << r.snapshotBytes;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::string keepDir;
    // Cells last milliseconds; best-of-3 is needed before a single
    // row's wall time means anything on a loaded host.
    int repeat = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--repeat") == 0 &&
                 i + 1 < argc)
            repeat = std::max(1, std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--keep-dir") == 0 &&
                 i + 1 < argc)
            keepDir = argv[++i];
    }

    // Experiment 1's associativity axis on the small test target:
    // distinct configurations have distinct library keys, so the
    // grid exercises content addressing, not just one object.
    ConfigCell configs[] = {
        {"a4", core::SystemConfig::testDefault()},
        {"a1", core::SystemConfig::testDefault()},
    };
    configs[1].sys.mem.l2Assoc = 1;

    // Positions deep enough that re-simulating the warm-up, not
    // booting the simulation, is the dominant cost of a cell. Not
    // scaled down in quick mode: shallower cells are boot-dominated
    // noise, and the full grid already finishes in under a second.
    const std::uint64_t positions[] = {100, 200, 400};
    const std::uint64_t warmupSeed = 7;

    const std::string dir =
        !keepDir.empty()
            ? keepDir
            : (std::filesystem::temp_directory_path() /
               "varsim_bench_ckpt_restore.ckpt")
                  .string();
    if (keepDir.empty())
        std::filesystem::remove_all(dir);
    auto lib = ckpt::CheckpointLibrary::open(dir);

    bench::banner(
        "bench_ckpt_restore",
        "warm-up restore-from-disk vs re-simulation",
        "Section 3.2.2 methodology: one warm-up, many perturbed "
        "measurement runs; the library amortizes the warm-up across "
        "processes");

    const auto wl = benchWorkload();
    std::vector<Row> rows;
    double rewarmWall = 0, restoreWall = 0;
    bool mismatch = false;

    for (const auto &cc : configs) {
        for (const std::uint64_t pos : positions) {
            const std::string cell =
                std::string("OLTP/") + cc.name + "@" +
                std::to_string(pos);

            // Re-warm: boot and simulate to the position, then
            // snapshot — the cost every process pays without the
            // library. Best-of-N wall time.
            double wall = 0;
            core::Checkpoint cp;
            std::uint64_t ticks = 0;
            for (int rep = 0; rep < repeat; ++rep) {
                bench::Stopwatch sw;
                core::Simulation simn(cc.sys, wl);
                simn.seedPerturbation(warmupSeed);
                simn.runTransactions(pos);
                cp = simn.checkpoint();
                const double w = sw.seconds();
                ticks = simn.now();
                if (rep == 0 || w < wall)
                    wall = w;
            }
            rows.push_back(
                {cell, "rewarm", ticks, pos, wall, cp.size()});
            rewarmWall += wall;

            ckpt::CheckpointKey key;
            key.sys = cc.sys;
            key.wl = wl;
            key.warmupSeed = warmupSeed;
            key.position = pos;
            lib->publish(key, cp);

            // Restore: read + integrity-check the archive and
            // rebuild a live simulation from it.
            wall = 0;
            for (int rep = 0; rep < repeat; ++rep) {
                bench::Stopwatch sw;
                core::Checkpoint fetched;
                if (!lib->fetch(key, fetched)) {
                    std::fprintf(stderr,
                                 "FAIL: %s vanished from the "
                                 "library\n",
                                 cell.c_str());
                    return 1;
                }
                auto simn =
                    core::Simulation::restore(cc.sys, wl, fetched);
                const double w = sw.seconds();
                if (rep == 0 || w < wall)
                    wall = w;
                if (fetched.bytes != cp.bytes ||
                    simn->totalTxns() != pos) {
                    mismatch = true;
                    std::fprintf(stderr,
                                 "FAIL: %s restored snapshot is "
                                 "not bitwise the warmed one\n",
                                 cell.c_str());
                }
            }
            rows.push_back(
                {cell, "restore", ticks, pos, wall, cp.size()});
            restoreWall += wall;

            const Row &w0 = rows[rows.size() - 2];
            const Row &r0 = rows.back();
            std::printf("%-14s rewarm %8.4fs  restore %8.4fs  "
                        "(%5.1fx)\n",
                        cell.c_str(), w0.wallSeconds,
                        r0.wallSeconds,
                        w0.wallSeconds / r0.wallSeconds);
        }
    }

    std::printf("total: rewarm %.4fs, restore %.4fs (%.1fx)\n",
                rewarmWall, restoreWall, rewarmWall / restoreWall);

    bench::writeRecord(jsonPath, "ckpt_restore", rows, rowJson);

    if (keepDir.empty())
        std::filesystem::remove_all(dir);
    if (mismatch)
        return 1;
    if (restoreWall >= rewarmWall) {
        std::fprintf(stderr,
                     "FAIL: restoring the grid (%.4fs) was not "
                     "faster than re-warming it (%.4fs)\n",
                     restoreWall, rewarmWall);
        return 1;
    }
    return 0;
}
