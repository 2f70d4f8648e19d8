/**
 * @file
 * varsim — command-line front end for the variability methodology.
 *
 * Subcommands:
 *   list                      show available workloads
 *   run      [options]        N perturbed runs of one configuration,
 *                             with a variability report
 *   compare  [options]        the full Section 5 comparison of two
 *                             configurations (WCR, CIs, t-test)
 *   anova    [options]        the Section 5.2 time-variability study
 *                             over checkpoints
 *   plan     [options]        fixed-budget run-length/run-count
 *                             advice from self-measured pilots
 *   campaign <run|resume|status|report|compact|export> --dir <path>
 *                             [options]
 *                             durable, resumable, adaptively-stopped
 *                             experiment orchestration (see below)
 *   ckpt <create|ls|verify|gc> --dir <path> [options]
 *                             the persistent warm-up checkpoint
 *                             library campaigns restore from
 *   serve --root <dir> [--listen <addr>] [--workers <n>]
 *                             resident multi-tenant campaign
 *                             daemon: durable submissions, shared
 *                             checkpoint library, fair-share
 *                             scheduling, streaming progress;
 *                             SIGTERM drains, kill -9 + restart
 *                             resumes every in-flight campaign
 *   client <ping|submit|status|watch|cancel|report|drain>
 *                             talk to a serve daemon
 *                             (--connect unix:<path>|tcp:[h:]<p>,
 *                             or --root <dir> for the default
 *                             socket). submit takes the campaign
 *                             flags below plus --tenant/--name/
 *                             --priority (and --watch yes to stay
 *                             attached); watch/cancel/report take
 *                             --id <tenant>/<name>
 *
 * Common options:
 *   --workload <name>      oltp|apache|specjbb|slashcode|ecperf|
 *                          barnes|ocean            (default oltp)
 *   --runs <n>             runs per configuration  (default 10;
 *                          at most 2^20, a campaign's seed stride)
 *   --warmup <txns>        warmup transactions     (default 100)
 *   --txns <txns>          measured transactions   (default: the
 *                          workload's Table 3 count)
 *   --seed <s>             base perturbation seed  (default 1000)
 *   --cpus <n>             processors, 1..64       (default 16)
 *   --threads-per-cpu <n>  software threads/CPU    (workload default)
 *   --stats <file|->       (run) write each run's full metrics-
 *                          registry dump as one JSONL line, and
 *                          print host-throughput profiling
 *   --sample <d:U:W:M[:c]> intra-run statistical sampling: per
 *                          period of U transactions, fast-forward
 *                          under functional warming, then run W
 *                          detailed warm-up and M measured
 *                          transactions; report each metric as a
 *                          point estimate with a confidence-c CI
 *                          (default c = 0.95). Designs: systematic
 *                          (fixed window phase), stratified (random
 *                          offset per period, re-drawn per seed),
 *                          matched (random offset, identical across
 *                          perturbation seeds). Applies to run,
 *                          compare and campaign run/resume
 *   --sample-offset-seed <s>  seed of the window-placement stream
 *                          (default 12345)
 *
 * Configuration knobs (for run, anova and plan; suffix -a/-b for
 * compare, where --cpus is shared by both sides):
 *   --l2-assoc <w>  --l2-size <bytes>  --dram <ns>  --perturb <ns>
 *   --model simple|ooo  --rob <entries>  --quantum <ns>
 *   --protocol snooping|directory  --prefetch on|off
 *
 * anova options:  --checkpoints <n> --step <txns>
 *                 --strategy systematic|random|stratified
 * plan options:   --budget <txns> [--pilot <len>]...
 *
 * campaign options (run/resume; status/report need only --dir):
 *   --dir <path>           the durable result store (required)
 *   --vary <knob>=<v,...>  one configuration per value; repeatable
 *                          flags form a cartesian grid. Knobs:
 *                          l2-assoc l2-size dram perturb rob quantum
 *                          model protocol prefetch
 *   --runs <n>             fixed K per group (disables adaptation)
 *   --pilot-runs <n>       pilot batch size        (default 6)
 *   --max-runs <n>         adaptive per-group cap  (default 32)
 *   --rel-err <frac>       target CI half-width    (default 0.02)
 *   --alpha <frac>         comparison significance (default 0.05
 *                          when >= 2 configs)
 *   --budget <txns>        fixed budget: planBudget picks the
 *                          run-length/run-count split
 *   --checkpoints <n> --step <txns> --strategy <s>
 *                          multi-starting-point sampling (§5.2)
 *   --shard <i>/<N>        execute only this process's cell stripe
 *   --host-threads <n>     worker threads (0 = hardware)
 *   --interrupt-after <n>  stop as if killed after n new runs
 *                          (resume walkthroughs, tests)
 *   --ckpt-dir <path>      persistent checkpoint library: warm-ups
 *                          are restored from it when present and
 *                          published to it when rebuilt (results are
 *                          bit-identical either way)
 *
 * report options:
 *   --metric <name>        per-group variability of one recorded
 *                          metric: a built-in (cycles_per_txn,
 *                          runtime_ticks, txns) or any registry name
 *                          (e.g. system.mem.bus.l2_misses); "list"
 *                          enumerates the recorded names
 *
 * compact: fold the store's records into one checksummed binary
 *          segment so status/report/resume open in time proportional
 *          to the appends since the last compaction, not the
 *          campaign's size. Observationally a no-op (same reports,
 *          same resume decisions); also triggered automatically when
 *          the journal tail reaches 8192 runs. The segment it
 *          replaces is deleted.
 * export:  re-emit any store (compacted or not) as pure version-1
 *          JSONL on stdout or --out <file> — the interchange format
 *          for external tooling.
 *
 * ckpt options:
 *   create: --dir <library> plus the campaign flags above (the same
 *           grid/seed/checkpoint flags the campaign will use; needs
 *           --checkpoints >= 1) — pre-warms every snapshot
 *   ls:     --dir <library>            list stored checkpoints,
 *                                      oldest first, with each
 *                                      object's archive format
 *   verify: --dir <library>            integrity-check every object,
 *                                      name its format and count
 *                                      format-1 and newer-build
 *                                      ones; exit 1 on damage
 *   gc:     --dir <library> [--max-bytes <n>]
 *                                      sweep debris/corruption and
 *                                      evict oldest over the cap
 *
 * Examples:
 *   varsim run --workload slashcode --runs 20
 *   varsim run --workload oltp --txns 2000 \
 *          --sample stratified:200:20:40
 *   varsim compare --l2-assoc-a 1 --l2-assoc-b 4 --runs 15
 *   varsim anova --workload specjbb --checkpoints 5 --step 800
 *   varsim plan --budget 20000
 *   varsim campaign run --dir assoc.camp --vary l2-assoc=1,2,4
 *   varsim campaign status --dir assoc.camp
 *   varsim campaign report --dir assoc.camp
 *   varsim campaign report --dir assoc.camp --metric \
 *          system.mem.l1_miss_ratio
 *   varsim ckpt create --dir ckpts --checkpoints 4 --step 300 \
 *          --vary l2-assoc=2,4
 *   varsim campaign run --dir a.camp --ckpt-dir ckpts \
 *          --checkpoints 4 --step 300 --vary l2-assoc=2,4
 *   varsim ckpt verify --dir ckpts
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/knobs.hh"
#include "ckpt/archive.hh"
#include "ckpt/library.hh"
#include "core/varsim.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"

using namespace varsim;

namespace
{

/**
 * Minimal deterministic flag parser: --key value pairs. Every getter
 * records the key it was asked for, so once a subcommand has read
 * all of its flags, rejectUnread() can fail on the ones it never
 * asked for: a misspelt or misplaced flag is an error, never a
 * silently ignored no-op.
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                sim::fatal("unexpected argument '%s' (flags are "
                           "--key value)", key.c_str());
            }
            key = key.substr(2);
            if (i + 1 >= argc) {
                sim::fatal("flag --%s needs a value", key.c_str());
            }
            values.emplace(key, argv[++i]);
        }
    }

    bool has(const std::string &key) const
    {
        queried.insert(key);
        return values.count(key) > 0;
    }

    std::string
    str(const std::string &key, const std::string &dflt) const
    {
        queried.insert(key);
        auto range = values.equal_range(key);
        return range.first != range.second ? range.first->second
                                           : dflt;
    }

    std::uint64_t
    num(const std::string &key, std::uint64_t dflt) const
    {
        if (!has(key))
            return dflt;
        return toUnsigned(key, str(key, ""));
    }

    double
    real(const std::string &key, double dflt) const
    {
        if (!has(key))
            return dflt;
        const std::string text = str(key, "");
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0')
            sim::fatal("--%s wants a number (got '%s')", key.c_str(),
                       text.c_str());
        return v;
    }

    /** All values given for a repeatable flag. */
    std::vector<std::uint64_t>
    all(const std::string &key) const
    {
        std::vector<std::uint64_t> out;
        for (const std::string &text : allStr(key))
            out.push_back(toUnsigned(key, text));
        return out;
    }

    /** All string values given for a repeatable flag, in order. */
    std::vector<std::string>
    allStr(const std::string &key) const
    {
        queried.insert(key);
        std::vector<std::string> out;
        auto range = values.equal_range(key);
        for (auto it = range.first; it != range.second; ++it)
            out.push_back(it->second);
        return out;
    }

    /**
     * Fail, naming them, if any flags were given that no getter
     * asked for. Call once the subcommand has read every flag it
     * takes and before it starts work.
     */
    void
    rejectUnread(const std::string &what) const
    {
        std::string unread;
        for (auto it = values.begin(); it != values.end();
             it = values.upper_bound(it->first)) {
            if (queried.count(it->first) == 0)
                unread += " --" + it->first;
        }
        if (!unread.empty())
            sim::fatal("%s does not take%s (see the header of "
                       "tools/varsim_cli.cc for its flags)",
                       what.c_str(), unread.c_str());
    }

  private:
    /** Digits only: no sign, no blanks, no trailing garbage. */
    static std::uint64_t
    toUnsigned(const std::string &key, const std::string &text)
    {
        errno = 0;
        const bool digits =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        const std::uint64_t v =
            digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
        if (!digits || errno == ERANGE)
            sim::fatal("--%s wants an unsigned integer (got '%s')",
                       key.c_str(), text.c_str());
        return v;
    }

    std::multimap<std::string, std::string> values;
    mutable std::set<std::string> queried;
};

/** The configuration knobs every front end accepts. */
const char *const kKnobs[] = {"cpus",    "l2-assoc", "l2-size",
                              "dram",    "perturb",  "rob",
                              "quantum", "model",    "protocol",
                              "prefetch"};

/**
 * The spec fields naming a system and a workload: the knob flags,
 * suffixed for one side of `compare` ("-a"/"-b"; --cpus is shared
 * by both sides), and the workload flags. Every subcommand turns its
 * flags into campaign::SpecFields and translates them with
 * campaign::buildSpec, the path `varsim client submit` and the serve
 * daemon use too, so all front ends agree on what a flag means and
 * refuse the same bad values.
 */
campaign::SpecFields
systemFieldsFromArgs(const Args &args,
                     const std::string &suffix = "")
{
    campaign::SpecFields f;
    for (const std::string knob : kKnobs) {
        const std::string flag =
            knob == "cpus" ? knob : knob + suffix;
        if (args.has(flag))
            f.base[knob] = args.str(flag, "");
    }
    f.workload = args.str("workload", f.workload);
    f.workloadSeed = args.num("workload-seed", f.workloadSeed);
    f.threadsPerCpu =
        args.num("threads-per-cpu", f.threadsPerCpu);
    return f;
}

/** Add the run-length and sampling flags to @p f. */
void
runFieldsFromArgs(const Args &args, campaign::SpecFields &f)
{
    f.warmupTxns = args.num("warmup", f.warmupTxns);
    f.measureTxns = args.num("txns", f.measureTxns);
    f.sample = args.str("sample", f.sample);
    f.sampleOffsetSeed =
        args.num("sample-offset-seed", f.sampleOffsetSeed);
}

/** The spec fields of `campaign`, `ckpt create` and `client submit`. */
campaign::SpecFields
specFieldsFromArgs(const Args &args)
{
    campaign::SpecFields f = systemFieldsFromArgs(args);
    runFieldsFromArgs(args, f);
    f.vary = args.allStr("vary");
    f.baseSeed = args.num("seed", f.baseSeed);
    f.numCheckpoints = args.num("checkpoints", f.numCheckpoints);
    f.checkpointStep = args.num("step", f.checkpointStep);
    f.strategy = args.str("strategy", f.strategy);
    f.fixedRuns = args.num("runs", f.fixedRuns);
    f.pilotRuns = args.num("pilot-runs", f.pilotRuns);
    f.maxRuns = args.num("max-runs", f.maxRuns);
    f.relativeError = args.real("rel-err", f.relativeError);
    if (args.has("alpha"))
        f.alpha = args.real("alpha", 0.0);
    f.budgetTxns = args.num("budget", f.budgetTxns);
    return f;
}

campaign::CampaignSpec
buildSpecOrDie(const campaign::SpecFields &fields)
{
    campaign::CampaignSpec spec;
    std::string err;
    if (!campaign::buildSpec(fields, spec, &err))
        sim::fatal("%s", err.c_str());
    return spec;
}

int
cmdList(const Args &args)
{
    args.rejectUnread("varsim list");
    std::printf("workload     default txns  threads/cpu\n");
    std::printf("oltp         200           8   TPC-C-like DB2 "
                "transaction mix\n");
    std::printf("apache       1000          8   static web "
                "serving\n");
    std::printf("specjbb      3000          8   Java server, "
                "per-warehouse + GC\n");
    std::printf("slashcode    30            2   dynamic web, hot "
                "DB lock\n");
    std::printf("ecperf       5             4   3-tier driver "
                "cycles\n");
    std::printf("barnes       1             1   SPLASH-2 N-body\n");
    std::printf("ocean        1             1   SPLASH-2 stencil\n");
    return 0;
}

int
cmdRun(const Args &args)
{
    campaign::SpecFields f = systemFieldsFromArgs(args);
    runFieldsFromArgs(args, f);
    f.fixedRuns = args.num("runs", 10);
    const auto spec = buildSpecOrDie(f);
    const auto &sys = spec.configs.front().sys;
    const auto &wl = spec.wl;
    const auto &rc = spec.run;
    core::ExperimentConfig exp;
    exp.numRuns = spec.stop.fixedRuns;
    exp.baseSeed = args.num("seed", 1000);
    const std::string statsPath = args.str("stats", "");
    args.rejectUnread("varsim run");

    std::printf("running %zu x %s on %zu CPUs...\n", exp.numRuns,
                workload::kindName(wl.kind), sys.numCpus());
    if (rc.sample.enabled())
        std::printf("sampling: %s\n", rc.sample.toString().c_str());
    const auto results = core::runMany(sys, wl, rc, exp);
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("  run %2zu: %10.0f cycles/txn  (%llu txns)\n",
                    i, results[i].cyclesPerTxn,
                    static_cast<unsigned long long>(
                        results[i].txns));
    }

    // Sampled runs: per-run point estimates with their within-run
    // confidence intervals for the headline rates.
    if (rc.sample.enabled()) {
        std::printf("\nsampled estimates (per run, %0.f%% CI):\n",
                    100.0 * rc.sample.confidence);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const core::SampledStats &s = results[i].sampled;
            std::printf(
                "  run %2zu: IPC %.4f [%.4f, %.4f]  "
                "L2 miss %.4f [%.4f, %.4f]  "
                "(%llu window(s), %llu/%llu txns detailed%s)\n",
                i, s.ipcMean, s.ipcLo, s.ipcHi, s.l2MissMean,
                s.l2MissLo, s.l2MissHi,
                static_cast<unsigned long long>(s.windows),
                static_cast<unsigned long long>(s.measuredTxns +
                                                s.warmTxns),
                static_cast<unsigned long long>(
                    s.measuredTxns + s.warmTxns + s.fastTxns),
                s.fullDetailFallback ? ", full-detail fallback"
                                     : "");
        }
    }
    const auto rep = core::analyze(results);
    std::printf("\n%s\n", rep.toString().c_str());
    // Across-run inference needs at least two runs; --runs 1 is a
    // legitimate invocation (e.g. a single sampled run, which
    // carries its own within-run CI above).
    if (results.size() >= 2) {
        const auto ci = stats::meanConfidenceInterval(
            core::metricOf(results), 0.95);
        std::printf("95%% CI for the mean: [%.0f, %.0f]\n", ci.lo,
                    ci.hi);
        std::printf("runs for a 2%% error bound at 95%%: %zu\n",
                    stats::meanPrecisionSampleSize(
                        rep.coefficientOfVariation / 100.0, 0.02,
                        0.95));
    }

    // --stats <file|->: one schema-stable JSONL line per run (the
    // full metrics-registry dump), plus a host-throughput summary.
    if (!statsPath.empty()) {
        std::FILE *out = statsPath == "-"
                             ? stdout
                             : std::fopen(statsPath.c_str(), "w");
        if (out == nullptr)
            sim::fatal("cannot write %s", statsPath.c_str());
        for (const auto &r : results)
            std::fprintf(out, "%s\n", r.statsJsonl().c_str());
        if (out != stdout)
            std::fclose(out);
        double wall = 0.0, mips = 0.0;
        std::uint64_t events = 0;
        for (const auto &r : results) {
            wall += r.host.warmupWallSec + r.host.measureWallSec;
            events += r.host.eventsDispatched;
            mips += r.host.hostMips;
        }
        std::printf("host: %.2fs total wall, %llu events "
                    "dispatched, %.1f MIPS mean per run\n",
                    wall,
                    static_cast<unsigned long long>(events),
                    results.empty()
                        ? 0.0
                        : mips / static_cast<double>(
                                     results.size()));
    }
    return 0;
}

int
cmdCompare(const Args &args)
{
    campaign::SpecFields fa = systemFieldsFromArgs(args, "-a");
    campaign::SpecFields fb = systemFieldsFromArgs(args, "-b");
    runFieldsFromArgs(args, fa);
    runFieldsFromArgs(args, fb);
    fa.fixedRuns = fb.fixedRuns = args.num("runs", 10);
    const auto specA = buildSpecOrDie(fa);
    const auto specB = buildSpecOrDie(fb);
    const auto &sysA = specA.configs.front().sys;
    const auto &sysB = specB.configs.front().sys;
    const auto &wl = specA.wl;
    const auto &rc = specA.run;
    core::ExperimentConfig exp;
    exp.numRuns = specA.stop.fixedRuns;
    exp.baseSeed = args.num("seed", 1000);
    args.rejectUnread("varsim compare");
    if (exp.numRuns < 2)
        sim::fatal("compare needs --runs >= 2 (a t-test needs two "
                   "runs a side; got %zu)", exp.numRuns);

    std::printf("comparing A vs B on %s, %zu runs each...\n",
                workload::kindName(wl.kind), exp.numRuns);
    if (rc.sample.enabled())
        std::printf("sampling: %s\n", rc.sample.toString().c_str());
    core::ExperimentConfig expB = exp;
    expB.baseSeed = exp.baseSeed + 7919;
    // One interleaved batch: B's runs backfill host threads as A's
    // drain instead of idling at a join barrier between the two.
    const auto both = core::runManyBatch(
        {{sysA, wl, rc, exp}, {sysB, wl, rc, expB}});
    const auto &a = both[0];
    const auto &b = both[1];

    const auto rep = core::compare(a, b, 0.95);
    std::printf("\n%s\n", rep.toString().c_str());

    const auto diff = stats::differenceConfidenceInterval(
        core::metricOf(a), core::metricOf(b), 0.95);
    std::printf("95%% CI on the difference (A - B): "
                "[%.0f, %.0f] cycles/txn\n", diff.lo, diff.hi);
    std::printf("runs to bound the wrong-conclusion probability "
                "at 5%%: %zu per configuration\n",
                core::recommendRuns(core::metricOf(a),
                                    core::metricOf(b), 0.05));
    return 0;
}

int
cmdAnova(const Args &args)
{
    campaign::SpecFields f = systemFieldsFromArgs(args);
    // Every run restores a checkpoint: no warm-up, and anova's own
    // default run length and checkpoint count.
    f.warmupTxns = 0;
    f.measureTxns = args.num("txns", 200);
    f.numCheckpoints = args.num("checkpoints", 5);
    f.checkpointStep = args.num("step", f.checkpointStep);
    f.strategy = args.str("strategy", f.strategy);
    f.baseSeed = args.num("seed", f.baseSeed);
    f.fixedRuns = args.num("runs", 6);
    const auto spec = buildSpecOrDie(f);
    const auto &sys = spec.configs.front().sys;
    const auto &wl = spec.wl;
    const std::size_t numCkpts = spec.numCheckpoints;
    const std::uint64_t lifetime = spec.checkpointStep * numCkpts;
    const std::size_t runs = spec.stop.fixedRuns;
    args.rejectUnread("varsim anova");
    if (numCkpts < 2 || runs < 2)
        sim::fatal("anova needs --checkpoints >= 2 and --runs >= 2 "
                   "(variance between and within checkpoints; got "
                   "%zu and %zu)", numCkpts, runs);

    const auto positions = core::planCheckpoints(
        spec.strategy, lifetime, numCkpts, spec.baseSeed);

    std::printf("%s: %zu %s checkpoints over %llu txns, %zu runs "
                "each\n",
                workload::kindName(wl.kind), numCkpts,
                f.strategy.c_str(),
                static_cast<unsigned long long>(lifetime), runs);

    core::Simulation warmer(sys, wl);
    warmer.seedPerturbation(spec.baseSeed);
    std::vector<std::vector<double>> groups;
    std::uint64_t done = 0;
    for (std::size_t c = 0; c < positions.size(); ++c) {
        warmer.runTransactions(positions[c] - done);
        done = positions[c];
        const core::Checkpoint cp = warmer.checkpoint();
        core::ExperimentConfig exp;
        exp.numRuns = runs;
        exp.baseSeed = 20000 + 100 * c;
        groups.push_back(core::metricOf(core::runManyFromCheckpoint(
            sys, wl, cp, spec.run, exp)));
        const auto s = stats::summarize(groups.back());
        std::printf("  checkpoint @%llu txns: mean=%.0f sd=%.0f\n",
                    static_cast<unsigned long long>(positions[c]),
                    s.mean, s.stddev);
    }
    const auto verdict = core::checkpointAnova(groups, 0.05);
    std::printf("\n%s\n", verdict.toString().c_str());
    return 0;
}

int
cmdPlan(const Args &args)
{
    campaign::SpecFields f = systemFieldsFromArgs(args);
    f.warmupTxns = args.num("warmup", f.warmupTxns);
    f.fixedRuns = args.num("runs", 6);
    const auto spec = buildSpecOrDie(f);
    const std::uint64_t budget = args.num("budget", 20000);
    std::vector<std::uint64_t> lengths = args.all("pilot");
    if (lengths.empty())
        lengths = {50, 150, 400};
    const std::size_t pilotRuns = spec.stop.fixedRuns;
    args.rejectUnread("varsim plan");
    if (budget < 3)
        sim::fatal("plan needs --budget >= 3 (it keeps at least 3 "
                   "runs; got %llu)",
                   static_cast<unsigned long long>(budget));
    if (lengths.size() < 2 ||
        std::count(lengths.begin(), lengths.end(), 0u) > 0)
        sim::fatal("plan needs two or more nonzero --pilot lengths "
                   "to fit its CoV model");
    if (pilotRuns < 2)
        sim::fatal("plan needs --runs >= 2 (a pilot's CoV needs two "
                   "runs; got %zu)", pilotRuns);

    std::printf("measuring pilots for the budget planner...\n");
    std::vector<std::pair<std::uint64_t, double>> pilots;
    for (std::uint64_t len : lengths) {
        core::RunConfig rc = spec.run;
        rc.measureTxns = len;
        core::ExperimentConfig exp;
        exp.numRuns = pilotRuns;
        const auto rep = core::analyze(
            core::runMany(spec.configs.front().sys, spec.wl, rc, exp));
        pilots.emplace_back(len, rep.coefficientOfVariation);
        std::printf("  pilot %llu txns: CoV %.2f%%\n",
                    static_cast<unsigned long long>(len),
                    rep.coefficientOfVariation);
    }
    const auto plan = core::planBudget(pilots, budget, 3, 0.95);
    std::printf("\nbudget of %llu measured transactions:\n  %s\n",
                static_cast<unsigned long long>(budget),
                plan.toString().c_str());
    return 0;
}

int
cmdCampaign(const std::string &action, const Args &args)
{
    if (action == "status" || action == "report") {
        const std::string dir = args.str("dir", "");
        if (dir.empty())
            sim::fatal("campaign %s needs --dir", action.c_str());
        // report: default is the cycles/txn methodology report;
        // --metric <name> reports any recorded registry metric, and
        // --metric list enumerates the available names.
        const std::string metric =
            action == "report" ? args.str("metric", "") : "";
        args.rejectUnread("varsim campaign " + action);
        if (action == "status") {
            std::printf("%s",
                        campaign::campaignStatus(dir)
                            .toString()
                            .c_str());
            return 0;
        }
        if (metric.empty())
            std::printf("%s\n",
                        campaign::campaignReport(dir).text.c_str());
        else
            std::printf(
                "%s\n",
                campaign::campaignMetricReport(dir, metric)
                    .text.c_str());
        return 0;
    }
    if (action == "compact") {
        const std::string dir = args.str("dir", "");
        if (dir.empty())
            sim::fatal("campaign compact needs --dir");
        args.rejectUnread("varsim campaign compact");
        auto store = campaign::ResultStore::open(dir);
        const auto res = store->compact();
        if (!res.performed)
            std::printf("%s is already compact (%zu run(s))\n",
                        dir.c_str(), store->totalRuns());
        else
            std::printf("compacted %zu run(s) into %s/%s\n",
                        res.runs, dir.c_str(),
                        res.segmentFile.c_str());
        return 0;
    }
    if (action == "export") {
        // Interchange escape hatch: re-emit any store — compacted
        // or not — as the pure JSONL any version-1 reader replays.
        const std::string dir = args.str("dir", "");
        if (dir.empty())
            sim::fatal("campaign export needs --dir");
        const std::string out = args.str("out", "");
        args.rejectUnread("varsim campaign export");
        auto store = campaign::ResultStore::openReadOnly(dir);
        if (out.empty()) {
            store->exportJsonl(std::cout);
        } else {
            std::ofstream os(out, std::ios::binary);
            if (!os)
                sim::fatal("cannot write %s", out.c_str());
            store->exportJsonl(os);
        }
        return 0;
    }
    if (action != "run" && action != "resume") {
        sim::fatal("unknown campaign action '%s' (run, resume, "
                   "status, report, compact, export)",
                   action.c_str());
    }

    const std::string dir = args.str("dir", "");
    if (dir.empty())
        sim::fatal("campaign %s needs --dir", action.c_str());

    const auto spec = buildSpecOrDie(specFieldsFromArgs(args));

    campaign::CampaignOptions opt;
    opt.hostThreads = args.num("host-threads", 0);
    opt.interruptAfter = args.num("interrupt-after", 0);
    opt.ckptDir = args.str("ckpt-dir", "");
    opt.verbose = true;
    const std::string shard = args.str("shard", "1/1");
    if (std::sscanf(shard.c_str(), "%zu/%zu", &opt.shardIndex,
                    &opt.shardCount) != 2 ||
        opt.shardCount == 0 || opt.shardIndex < 1 ||
        opt.shardIndex > opt.shardCount)
        sim::fatal("--shard wants i/N with 1 <= i <= N (got "
                   "'%s')", shard.c_str());
    opt.shardIndex -= 1; // user-facing shards are 1-based
    args.rejectUnread("varsim campaign " + action);

    const auto outcome = campaign::runCampaign(spec, dir, opt);
    std::printf("\n%s", campaign::campaignStatus(dir)
                            .toString()
                            .c_str());
    if (outcome.interrupted) {
        std::printf("interrupted after %zu new run(s); resume "
                    "with: varsim campaign resume --dir %s ...\n",
                    outcome.runsExecuted, dir.c_str());
        return 0;
    }
    std::printf("executed %zu new run(s); campaign is %s\n",
                outcome.runsExecuted,
                outcome.complete ? "complete"
                                 : "waiting on other shards");
    if (outcome.complete)
        std::printf("\n%s\n",
                    campaign::campaignReport(dir).text.c_str());
    return 0;
}

int
cmdCkpt(const std::string &action, const Args &args)
{
    const std::string dir = args.str("dir", "");
    if (dir.empty())
        sim::fatal("ckpt %s needs --dir", action.c_str());

    if (action == "create") {
        const auto spec = buildSpecOrDie(specFieldsFromArgs(args));
        if (!spec.numCheckpoints)
            sim::fatal("ckpt create needs --checkpoints >= 1 (the "
                       "same value the campaign will use)");
        campaign::CampaignOptions opt;
        opt.ckptDir = dir;
        opt.hostThreads = args.num("host-threads", 0);
        opt.verbose = true;
        args.rejectUnread("varsim ckpt create");
        const auto r =
            campaign::warmCampaignCheckpoints(spec, opt);
        std::printf("library %s: %zu checkpoint(s) warmed, %zu "
                    "already present; %zu entr%s, %llu byte(s)\n",
                    dir.c_str(), r.warmed, r.restored,
                    r.libraryEntries,
                    r.libraryEntries == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(r.libraryBytes));
        return 0;
    }

    const std::uint64_t maxBytes =
        action == "gc" ? args.num("max-bytes", 0) : 0;
    args.rejectUnread("varsim ckpt " + action);
    auto lib = ckpt::CheckpointLibrary::open(dir);
    if (action == "ls") {
        const auto entries = lib->entries();
        std::printf("%zu checkpoint(s) in %s\n", entries.size(),
                    dir.c_str());
        for (const auto &e : entries) {
            std::printf("  %s  pos %-8llu seed %-12llu %llu "
                        "byte(s)  format %s\n",
                        e.digestHex.c_str(),
                        static_cast<unsigned long long>(e.position),
                        static_cast<unsigned long long>(
                            e.warmupSeed),
                        static_cast<unsigned long long>(e.bytes),
                        e.format ? ckpt::formatName(e.format).c_str()
                                 : "? (unreadable)");
        }
        return 0;
    }
    if (action == "verify") {
        const auto rep = lib->verify();
        std::printf("%s", rep.toString().c_str());
        return rep.clean() ? 0 : 1;
    }
    if (action == "gc") {
        const auto rep = lib->gc(maxBytes);
        std::printf("%s", rep.toString().c_str());
        return 0;
    }
    sim::fatal("unknown ckpt action '%s' (create, ls, verify, gc)",
               action.c_str());
    return 1;
}

volatile std::sig_atomic_t gSignals = 0;

void
onStopSignal(int)
{
    gSignals = gSignals + 1;
}

/** Resolve the daemon address from --connect or --root. */
serve::Address
addressFromArgs(const Args &args, const char *what)
{
    std::string text = args.str("connect", "");
    if (text.empty()) {
        const std::string root = args.str("root", "");
        if (root.empty())
            sim::fatal("%s needs --connect <addr> or --root <dir> "
                       "(default socket is <root>/serve.sock)",
                       what);
        text = "unix:" + root + "/serve.sock";
    }
    serve::Address addr;
    std::string err;
    if (!serve::Address::parse(text, addr, &err))
        sim::fatal("%s", err.c_str());
    return addr;
}

int
cmdServe(const Args &args)
{
    const std::string root = args.str("root", "");
    if (root.empty())
        sim::fatal("serve needs --root <dir> (durable daemon "
                   "state: tenants/, ckpts/, serve.sock)");

    serve::DaemonConfig cfg;
    cfg.root = root;
    std::string aerr;
    if (!serve::Address::parse(
            args.str("listen", "unix:" + root + "/serve.sock"),
            cfg.addr, &aerr))
        sim::fatal("%s", aerr.c_str());
    cfg.workers = args.num("workers", 0);
    args.rejectUnread("varsim serve");

    serve::Daemon daemon(cfg);
    std::string err;
    if (!daemon.start(&err))
        sim::fatal("%s", err.c_str());
    std::printf("varsim serve: listening on %s, root %s, "
                "%zu campaign(s) resumed\n",
                cfg.addr.toString().c_str(), root.c_str(),
                daemon.resumedCount());
    std::fflush(stdout);

    // First SIGTERM/SIGINT drains (finish every campaign, then
    // exit); a second one stops now — durable state re-runs
    // whatever was in flight on the next start.
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);
    std::thread drainer;
    bool draining = false;
    std::thread poller([&] {
        for (;;) {
            if (gSignals > 0 && !draining) {
                draining = true;
                std::printf("varsim serve: draining (signal "
                            "again to stop now)\n");
                std::fflush(stdout);
                drainer = std::thread([&daemon] {
                    daemon.scheduler().drain();
                    daemon.requestStop();
                });
            }
            if (gSignals > 1) {
                daemon.requestStop();
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    });
    poller.detach(); // exits with the process on clean stop

    daemon.wait();
    daemon.shutdown();
    if (drainer.joinable())
        drainer.join();
    std::printf("varsim serve: stopped\n");
    return 0;
}

int
cmdClient(const std::string &action, const Args &args)
{
    serve::Client client(addressFromArgs(args, "client"));
    const std::string what = "varsim client " + action;
    std::string err;

    auto campaignId = [&]() -> std::string {
        std::string id = args.str("id", "");
        if (id.empty()) {
            const std::string name = args.str("name", "");
            if (name.empty())
                sim::fatal("client %s needs --id <tenant>/<name> "
                           "(or --tenant/--name)", action.c_str());
            id = args.str("tenant", "default") + "/" + name;
        }
        return id;
    };
    auto printEvent = [](const serve::Event &ev) {
        if (ev.kind == "run")
            std::printf("  %s g%llu.r%llu  %10.0f cycles/txn  "
                        "(%llu/%llu)\n",
                        ev.campaignId.c_str(),
                        static_cast<unsigned long long>(ev.group),
                        static_cast<unsigned long long>(ev.runIdx),
                        ev.value,
                        static_cast<unsigned long long>(
                            ev.recorded),
                        static_cast<unsigned long long>(
                            ev.target));
        else if (ev.kind == "round")
            std::printf("  %s round: %llu/%llu run(s)\n",
                        ev.campaignId.c_str(),
                        static_cast<unsigned long long>(
                            ev.recorded),
                        static_cast<unsigned long long>(
                            ev.target));
        else
            std::printf("  %s %s%s%s\n", ev.campaignId.c_str(),
                        ev.kind.c_str(),
                        ev.message.empty() ? "" : ": ",
                        ev.message.c_str());
    };

    if (action == "ping") {
        args.rejectUnread(what);
        if (!client.ping(&err))
            sim::fatal("%s", err.c_str());
        std::printf("ok: daemon speaks submission schema %d\n",
                    serve::kSchemaVersion);
        return 0;
    }
    if (action == "submit") {
        serve::Submission sub;
        sub.tenant = args.str("tenant", "default");
        sub.name = args.str("name", "");
        if (sub.name.empty())
            sim::fatal("client submit needs --name (and usually "
                       "--tenant)");
        sub.priority = static_cast<int>(std::strtol(
            args.str("priority", "0").c_str(), nullptr, 10));
        sub.fields = specFieldsFromArgs(args);
        const bool watch = args.str("watch", "") == "yes";
        const std::uint64_t after = watch ? args.num("after", 0) : 0;
        args.rejectUnread(what);
        if (!client.submit(sub, &err))
            sim::fatal("%s", err.c_str());
        std::printf("submitted %s (fingerprint %s)\n",
                    sub.id().c_str(), sub.fingerprintHex.c_str());
        if (watch && !client.watch(sub.id(), after, printEvent, &err))
            sim::fatal("%s", err.c_str());
        return 0;
    }
    if (action == "watch") {
        const std::string id = campaignId();
        const std::uint64_t after = args.num("after", 0);
        args.rejectUnread(what);
        if (!client.watch(id, after, printEvent, &err))
            sim::fatal("%s", err.c_str());
        return 0;
    }
    if (action == "status") {
        const std::string tenant = args.str("tenant", "");
        args.rejectUnread(what);
        std::vector<serve::CampaignInfo> infos;
        if (!client.status(tenant, infos, &err))
            sim::fatal("%s", err.c_str());
        if (infos.empty()) {
            std::printf("no campaigns\n");
            return 0;
        }
        std::printf("%-32s %-10s %4s %14s %8s\n", "campaign",
                    "state", "prio", "runs", "inflight");
        for (const auto &info : infos) {
            std::printf("%-32s %-10s %4d %6llu/%-7llu %8llu%s%s\n",
                        info.id.c_str(), info.state.c_str(),
                        info.priority,
                        static_cast<unsigned long long>(
                            info.recorded),
                        static_cast<unsigned long long>(
                            info.target),
                        static_cast<unsigned long long>(
                            info.inFlight),
                        info.error.empty() ? "" : "  ",
                        info.error.c_str());
        }
        return 0;
    }
    if (action == "cancel") {
        const std::string id = campaignId();
        args.rejectUnread(what);
        if (!client.cancel(id, &err))
            sim::fatal("%s", err.c_str());
        std::printf("cancelled %s\n", id.c_str());
        return 0;
    }
    if (action == "report") {
        const std::string id = campaignId();
        const double confidence = args.real("confidence", 0.95);
        const std::string metric = args.str("metric", "");
        args.rejectUnread(what);
        std::string text;
        if (!client.report(id, confidence, metric, text, &err))
            sim::fatal("%s", err.c_str());
        std::printf("%s\n", text.c_str());
        return 0;
    }
    if (action == "drain") {
        args.rejectUnread(what);
        if (!client.drain(&err))
            sim::fatal("%s", err.c_str());
        std::printf("daemon drained and stopping\n");
        return 0;
    }
    sim::fatal("unknown client action '%s' (ping, submit, status, "
               "watch, cancel, report, drain)", action.c_str());
    return 1;
}

void
usage()
{
    std::printf("usage: varsim "
                "<list|run|compare|anova|plan|campaign|ckpt|"
                "serve|client> [--flag value]...\n"
                "       varsim campaign <run|resume|status|report> "
                "--dir DIR [--flag value]...\n"
                "       varsim ckpt <create|ls|verify|gc> "
                "--dir DIR [--flag value]...\n"
                "       varsim serve --root DIR "
                "[--listen unix:PATH|tcp:PORT] [--workers N]\n"
                "       varsim client <ping|submit|status|watch|"
                "cancel|report|drain>\n"
                "              [--connect ADDR | --root DIR] "
                "[--tenant T --name N | --id T/N]...\n"
                "see the header of tools/varsim_cli.cc or "
                "README.md for the full flag list\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "campaign") {
        if (argc < 3) {
            usage();
            return 1;
        }
        // Flags start after the action word, so hand the parser a
        // view of argv shifted by one.
        return cmdCampaign(argv[2], Args(argc - 1, argv + 1));
    }
    if (cmd == "ckpt") {
        if (argc < 3) {
            usage();
            return 1;
        }
        return cmdCkpt(argv[2], Args(argc - 1, argv + 1));
    }
    if (cmd == "serve")
        return cmdServe(Args(argc, argv));
    if (cmd == "client") {
        if (argc < 3) {
            usage();
            return 1;
        }
        return cmdClient(argv[2], Args(argc - 1, argv + 1));
    }
    Args args(argc, argv);
    if (cmd == "list")
        return cmdList(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "compare")
        return cmdCompare(args);
    if (cmd == "anova")
        return cmdAnova(args);
    if (cmd == "plan")
        return cmdPlan(args);
    usage();
    return 1;
}
