/**
 * @file
 * Service-path benchmark: campaigns pushed through a resident
 * `varsim serve` daemon over its wire protocol, end to end.
 *
 * For each client count C the benchmark boots a fresh in-process
 * daemon on a unix socket, then C client threads submit a batch of
 * small OLTP campaigns and watch each to completion. Measured per
 * row:
 *
 *   - submit_p50_ms / submit_p99_ms: admission round-trip latency
 *     (connect + frame + validate + durable write + ack);
 *   - first_result_p50_ms / first_result_p99_ms: submit-to-first
 *     recorded run, the latency a dashboard user actually feels;
 *   - campaigns_per_sec: completed campaigns per host second;
 *   - ticks_per_sec: simulated ticks delivered per host second,
 *     summed from the stores after the fact — the same axis every
 *     other emitter reports, so tools/perfcmp.py can compare two
 *     emissions (and its `service` report prints the latency
 *     percentiles side by side).
 *
 * Exits nonzero if any submission or watch fails, or if any
 * campaign ends in a non-complete state.
 *
 * Usage:
 *   bench_serve_throughput [--json FILE] [--campaigns N]
 *
 * VARSIM_QUICK=1 scales the per-row campaign batch down.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "campaign/knobs.hh"
#include "campaign/store.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"

namespace
{

using namespace varsim;
using Clock = std::chrono::steady_clock;

struct Row
{
    std::string mode; ///< "c<clients>"
    std::size_t campaigns = 0;
    double wallSeconds = 0;
    std::uint64_t simTicks = 0;
    double submitP50Ms = 0, submitP99Ms = 0;
    double firstP50Ms = 0, firstP99Ms = 0;

    double ticksPerSec() const { return simTicks / wallSeconds; }
    double campaignsPerSec() const
    {
        return campaigns / wallSeconds;
    }
};

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(xs.size() - 1) + 0.5);
    return xs[std::min(idx, xs.size() - 1)];
}

campaign::SpecFields
benchFields(std::uint64_t seed)
{
    campaign::SpecFields f;
    f.base["cpus"] = "2";
    f.workload = "oltp";
    f.threadsPerCpu = 2;
    f.warmupTxns = 2;
    f.measureTxns = 10;
    f.baseSeed = seed;
    f.fixedRuns = 2;
    return f;
}

/** One row of the record (bench::writeRecord). */
void
rowJson(std::ostream &os, const Row &r)
{
    os << "\"workload\": \"oltp\", \"mode\": \"" << r.mode
       << "\", \"sim_ticks\": " << r.simTicks
       << ", \"campaigns\": " << r.campaigns
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"ticks_per_sec\": " << r.ticksPerSec()
       << ", \"campaigns_per_sec\": " << r.campaignsPerSec()
       << ", \"submit_p50_ms\": " << r.submitP50Ms
       << ", \"submit_p99_ms\": " << r.submitP99Ms
       << ", \"first_result_p50_ms\": " << r.firstP50Ms
       << ", \"first_result_p99_ms\": " << r.firstP99Ms;
}

/** One client-count measurement; false on any service error. */
bool
runRow(std::size_t clients, std::size_t campaigns, Row &out)
{
    const auto rootPath =
        std::filesystem::temp_directory_path() /
        ("varsim_bench_serve_c" + std::to_string(clients));
    std::filesystem::remove_all(rootPath);
    std::filesystem::create_directories(rootPath);

    serve::DaemonConfig cfg;
    cfg.root = rootPath.string();
    cfg.addr.isUnix = true;
    cfg.addr.path = cfg.root + "/serve.sock";
    cfg.workers = 4;
    serve::Daemon daemon(cfg);
    std::string err;
    if (!daemon.start(&err)) {
        std::fprintf(stderr, "FAIL: daemon start: %s\n",
                     err.c_str());
        return false;
    }

    std::mutex mu;
    std::vector<double> submitMs, firstMs;
    std::atomic<std::size_t> errors{0};

    bench::Stopwatch total;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client(cfg.addr);
            for (std::size_t i = c; i < campaigns; i += clients) {
                std::string terr;
                serve::Submission sub;
                sub.tenant = "t" + std::to_string(i % 4);
                sub.name = "c" + std::to_string(i);
                sub.fields = benchFields(9000 + i);

                const auto t0 = Clock::now();
                if (!client.submit(sub, &terr)) {
                    std::fprintf(stderr, "FAIL: submit %s: %s\n",
                                 sub.id().c_str(), terr.c_str());
                    ++errors;
                    continue;
                }
                const auto t1 = Clock::now();

                bool first = false, complete = false;
                double firstDelay = 0;
                const bool ok = client.watch(
                    sub.id(), 0,
                    [&](const serve::Event &ev) {
                        if (ev.kind == "run" && !first) {
                            first = true;
                            firstDelay =
                                std::chrono::duration<double>(
                                    Clock::now() - t0)
                                    .count();
                        }
                        complete |= ev.kind == "complete";
                    },
                    &terr);
                if (!ok || !complete) {
                    std::fprintf(stderr, "FAIL: watch %s: %s\n",
                                 sub.id().c_str(), terr.c_str());
                    ++errors;
                    continue;
                }
                std::lock_guard<std::mutex> lock(mu);
                submitMs.push_back(
                    std::chrono::duration<double>(t1 - t0)
                        .count() *
                    1e3);
                firstMs.push_back(firstDelay * 1e3);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double wall = total.seconds();

    serve::Client closer(cfg.addr);
    if (!closer.drain(&err)) {
        std::fprintf(stderr, "FAIL: drain: %s\n", err.c_str());
        return false;
    }
    daemon.wait();

    // The throughput axis: simulated ticks landed in the stores.
    std::uint64_t ticks = 0;
    for (const auto &info : daemon.scheduler().status()) {
        if (info.state != "complete") {
            std::fprintf(stderr, "FAIL: %s ended %s\n",
                         info.id.c_str(), info.state.c_str());
            ++errors;
            continue;
        }
        auto store = campaign::ResultStore::openReadOnly(
            daemon.scheduler().storeDir(info.id));
        for (const auto &rec : store->groupRuns(0))
            ticks += rec.runtimeTicks;
    }
    daemon.shutdown();
    std::filesystem::remove_all(rootPath);
    if (errors.load())
        return false;

    out.mode = "c" + std::to_string(clients);
    out.campaigns = campaigns;
    out.wallSeconds = wall;
    out.simTicks = ticks;
    out.submitP50Ms = percentile(submitMs, 0.50);
    out.submitP99Ms = percentile(submitMs, 0.99);
    out.firstP50Ms = percentile(firstMs, 0.50);
    out.firstP99Ms = percentile(firstMs, 0.99);
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::size_t campaigns = bench::scaleRuns(32);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--campaigns") == 0 &&
                 i + 1 < argc)
            campaigns = std::max(
                1, std::atoi(argv[++i]));
    }

    bench::banner(
        "bench_serve_throughput",
        "campaign service: submissions, streaming, completion",
        "no paper analogue — operational envelope of the resident "
        "daemon the campaign methodology runs under");

    const std::size_t clientCounts[] = {1, 4, 8};
    std::vector<Row> rows;
    for (const std::size_t c : clientCounts) {
        Row row;
        if (!runRow(c, campaigns, row))
            return 1;
        rows.push_back(row);
        std::printf(
            "%-4s %3zu campaigns %7.3fs  %6.1f camp/s  "
            "submit p50/p99 %5.2f/%5.2f ms  "
            "first-result p50/p99 %6.1f/%6.1f ms\n",
            row.mode.c_str(), row.campaigns, row.wallSeconds,
            row.campaignsPerSec(), row.submitP50Ms,
            row.submitP99Ms, row.firstP50Ms, row.firstP99Ms);
    }

    bench::writeRecord(jsonPath, "serve_throughput", rows, rowJson);
    return 0;
}
