/**
 * @file
 * Result-path scaling: open+report cost of a campaign store before
 * and after compaction.
 *
 * Synthesizes a large pure-JSONL manifest (the store's own line
 * builders, no per-record fsync), measures `campaignReport` —
 * which replays the store from disk — against the same records
 * compacted into a binary segment, and verifies the two reports are
 * byte-identical while the compacted open is >= 10x faster at the
 * largest size (the acceptance gate; informational under
 * VARSIM_QUICK). Two more rows open an 8,000-run store whose runs
 * carry the registry dump of a 16-CPU OLTP run (~350 metrics each):
 * the width campaigns of the paper's Table 5 system store. As a
 * journal tail, parsing the metric records is the open cost; once
 * compacted, its ~34 MB segment is where the checksum costs most.
 *
 * Output rows (perfcmp.py-compatible):
 *   - workload: "<N>_runs", or "<N>_runs_wide" for the wide tail
 *   - mode: "jsonl" | "compacted"
 *   - ticks_per_sec: recorded runs replayed per host second
 *
 * Usage: bench_store_open [--json FILE]
 *
 * The committed BENCH_store_open.json comes from
 * `bench_store_open --json BENCH_store_open.json`.
 */

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "campaign/campaign.hh"
#include "campaign/knobs.hh"

using namespace varsim;

namespace
{

constexpr std::size_t kGroups = 4;
constexpr double kRequiredSpeedup = 10.0;

/** Runs of the wide tail: just under the 8192-run compaction point. */
constexpr std::size_t kWideRuns = 8000;

using Metrics = std::vector<std::pair<std::string, double>>;

struct Row
{
    std::size_t runs = 0;
    std::string mode; // "jsonl" | "compacted"
    double seconds = 0.0;
    bool wide = false;

    double
    runsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(runs) / seconds
                             : 0.0;
    }
};

campaign::StoreHeader
benchHeader()
{
    campaign::StoreHeader h;
    h.fingerprint = 0xb57a7eull;
    h.numGroups = kGroups;
    h.workload = "OLTP";
    h.configNames = {"c0", "c1", "c2", "c3"};
    return h;
}

/** Deterministic record: everything derives from (group, run). */
campaign::RunRecord
syntheticRecord(std::size_t g, std::size_t i)
{
    campaign::RunRecord r;
    r.group = g;
    r.configIdx = g;
    r.runIdx = i;
    r.seed = 0x5eed + g * 1000003 + i;
    r.cyclesPerTxn =
        20.0 + static_cast<double>(g) +
        static_cast<double>((i * 2654435761u) % 997) / 2991.0;
    r.runtimeTicks = 500000 + i * 37 + g;
    r.txns = 2000;
    const double base = r.cyclesPerTxn;
    r.metrics = {
        {"system.cpu.commits", 2000.0 * base},
        {"system.cpu.rob_stalls", 170.0 + base / 3.0},
        {"system.kernel.dispatches", 40.0 + static_cast<double>(g)},
        {"system.kernel.lock_waits",
         7.0 + static_cast<double>((i * 13) % 11)},
        {"system.mem.bus.l2_misses", 3000.0 + base * 11.0},
        {"system.mem.bus.occupancy", base / 97.0},
        {"system.mem.reads", 9000.0 + static_cast<double>(i % 101)},
        {"system.mem.writes", 4000.0 + static_cast<double>(i % 53)},
    };
    return r;
}

/**
 * The registry dump of one 16-CPU OLTP run (a short one: only the
 * names and the magnitudes of the values matter here).
 */
Metrics
oltp16Metrics()
{
    campaign::SpecFields f;
    f.base["cpus"] = "16";
    f.warmupTxns = 5;
    f.measureTxns = 20;
    campaign::CampaignSpec spec;
    std::string err;
    if (!campaign::buildSpec(f, spec, &err))
        sim::fatal("%s", err.c_str());
    const core::RunResult res =
        core::runOnce(spec.configs[0].sys, spec.wl, spec.run);
    Metrics out;
    for (const auto &sv : res.stats)
        out.emplace_back(sv.name, sv.value);
    return out;
}

/**
 * Write an N-run pure-JSONL store without paying an fsync per row.
 * With @p wide, every run carries its metrics instead of the eight
 * synthetic ones, each value scaled per run (counts stay integral).
 */
void
synthesizeStore(const std::string &dir, std::size_t totalRuns,
                const Metrics *wide = nullptr)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream f(dir + "/manifest.jsonl", std::ios::binary);
    f << campaign::ResultStore::headerLineFor(benchHeader())
      << "\n";
    for (std::size_t k = 0; k < totalRuns; ++k) {
        auto r = syntheticRecord(k % kGroups, k / kGroups);
        if (wide) {
            const double scale = r.cyclesPerTxn / 20.0;
            r.metrics = *wide;
            for (auto &kv : r.metrics)
                kv.second = kv.second == std::floor(kv.second)
                                ? std::floor(kv.second * scale)
                                : kv.second * scale;
        }
        f << campaign::ResultStore::runLineFor(r) << "\n"
          << campaign::ResultStore::metricsLineFor(r) << "\n";
    }
}

/** Best-of-3 open+report wall time; the text lands in @p report. */
double
timeOpenReport(const std::string &dir, std::string *report)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const bench::Stopwatch sw;
        *report = campaign::campaignReport(dir).text;
        const double s = sw.seconds();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

/** One row of the record (bench::writeRecord). */
void
rowJson(std::ostream &os, const Row &r)
{
    os << "\"workload\": \"" << r.runs
       << (r.wide ? "_runs_wide" : "_runs") << "\", \"mode\": \""
       << r.mode << "\", \"runs\": " << r.runs
       << ", \"open_report_seconds\": " << r.seconds
       << ", \"ticks_per_sec\": " << r.runsPerSec();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];

    bench::banner(
        "bench_store_open",
        "open+report cost: JSONL replay vs compacted segments",
        "n/a (implementation scaling; compaction must be "
        "observationally a no-op)");

    const std::vector<std::size_t> sizes =
        bench::quick() ? std::vector<std::size_t>{1000, 5000}
                       : std::vector<std::size_t>{10000, 100000};

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "varsim_bench_store_open.camp")
            .string();

    std::vector<Row> rows;
    double lastSpeedup = 0.0;
    bool identical = true;
    std::printf("%12s %12s %14s %14s %10s\n", "runs", "mode",
                "open+report_s", "runs/sec", "speedup");
    for (const std::size_t n : sizes) {
        synthesizeStore(dir, n);
        std::string jsonlReport;
        const double jsonlS = timeOpenReport(dir, &jsonlReport);
        rows.push_back({n, "jsonl", jsonlS});
        std::printf("%12zu %12s %14.4f %14.0f %10s\n", n, "jsonl",
                    jsonlS, rows.back().runsPerSec(), "-");

        campaign::ResultStore::open(dir)->compact();
        std::string compactReport;
        const double compactS =
            timeOpenReport(dir, &compactReport);
        rows.push_back({n, "compacted", compactS});
        lastSpeedup = compactS > 0.0 ? jsonlS / compactS : 0.0;
        std::printf("%12zu %12s %14.4f %14.0f %9.1fx\n", n,
                    "compacted", compactS,
                    rows.back().runsPerSec(), lastSpeedup);

        if (compactReport != jsonlReport) {
            identical = false;
            std::printf("FAIL: compacted report differs from the "
                        "JSONL twin at %zu runs\n", n);
        }
    }

    // The wide store, as a journal tail and compacted; outside the
    // compaction gate.
    const Metrics wide = oltp16Metrics();
    const std::size_t wideRuns =
        bench::quick() ? kWideRuns / 8 : kWideRuns;
    synthesizeStore(dir, wideRuns, &wide);
    std::string wideReport;
    rows.push_back({wideRuns, "jsonl", timeOpenReport(dir, &wideReport),
                    true});
    std::printf("%12zu %12s %14.4f %14.0f %10s  (%zu metrics/run)\n",
                wideRuns, "jsonl", rows.back().seconds,
                rows.back().runsPerSec(), "-", wide.size());
    campaign::ResultStore::open(dir)->compact();
    std::string wideCompactReport;
    rows.push_back({wideRuns, "compacted",
                    timeOpenReport(dir, &wideCompactReport), true});
    std::printf("%12zu %12s %14.4f %14.0f %9.1fx\n", wideRuns,
                "compacted", rows.back().seconds,
                rows.back().runsPerSec(),
                rows.back().seconds > 0.0
                    ? rows[rows.size() - 2].seconds / rows.back().seconds
                    : 0.0);
    if (wideCompactReport != wideReport) {
        identical = false;
        std::printf("FAIL: compacted report differs from the JSONL "
                    "twin at %zu wide runs\n", wideRuns);
    }
    std::filesystem::remove_all(dir);

    if (!jsonPath.empty())
        bench::writeRecord(jsonPath, "store_open", rows, rowJson);

    if (!identical)
        return 1;
    std::printf("reports byte-identical across modes: yes\n");
    if (bench::quick()) {
        std::printf("largest-size speedup %.1fx (gate of %.0fx "
                    "applies to the full-size run)\n", lastSpeedup,
                    kRequiredSpeedup);
        return 0;
    }
    if (lastSpeedup < kRequiredSpeedup) {
        std::printf("FAIL: open+report speedup %.1fx < %.0fx at "
                    "%zu runs\n", lastSpeedup, kRequiredSpeedup,
                    sizes.back());
        return 1;
    }
    std::printf("PASS: open+report speedup %.1fx >= %.0fx at %zu "
                "runs\n", lastSpeedup, kRequiredSpeedup,
                sizes.back());
    return 0;
}
