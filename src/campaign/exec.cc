#include "campaign/exec.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <numeric>

#include "ckpt/library.hh"
#include "core/analysis.hh"
#include "core/experiment.hh"
#include "core/simulation.hh"
#include "core/thread_pool.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace campaign
{

namespace
{

/**
 * Seed-space layout beyond the cell groups (all derived through
 * CampaignSpec::groupSeed so the overflow checks apply): pseudo
 * groups [numGroups, numGroups+8) seed the budget-planning pilots,
 * [numGroups+8, ...) seed the per-config checkpoint warmers.
 */
constexpr std::size_t kBudgetPilotGroups = 8;

StoreHeader
headerFor(const CampaignSpec &spec)
{
    StoreHeader h;
    h.fingerprint = spec.fingerprint();
    h.numGroups = spec.numGroups();
    h.numCheckpoints = spec.numCheckpoints;
    h.workload = workload::kindName(spec.wl.kind);
    for (const ConfigVariant &cv : spec.configs)
        h.configNames.push_back(cv.name);
    return h;
}

/**
 * Measure CoV pilots at a few run lengths and let the planner split
 * the budget; the decision is recorded so a resumed campaign reuses
 * it instead of re-measuring.
 */
PlanRecord
planTheBudget(const CampaignSpec &spec, ResultStore &store,
              const CampaignOptions &opt)
{
    if (store.plan().valid)
        return store.plan();

    // Three pilot lengths spanning ~1.5 decades of the budget.
    std::vector<std::uint64_t> lengths;
    for (std::uint64_t div : {64u, 16u, 4u}) {
        const std::uint64_t len =
            std::max<std::uint64_t>(10, spec.budgetTxns / div /
                                            spec.stop.pilotRuns);
        if (lengths.empty() || lengths.back() < len)
            lengths.push_back(len);
    }

    if (opt.verbose)
        std::printf("campaign: measuring %zu budget pilots...\n",
                    lengths.size());

    std::vector<std::pair<std::uint64_t, double>> pilots;
    for (std::size_t li = 0; li < lengths.size(); ++li) {
        core::RunConfig rc = spec.run;
        rc.measureTxns = lengths[li];
        core::ExperimentConfig exp;
        exp.numRuns = spec.stop.pilotRuns;
        exp.baseSeed = spec.groupSeed(spec.numGroups() + li, 0);
        exp.hostThreads = opt.hostThreads;
        const auto rep = core::analyze(core::runMany(
            spec.configs.front().sys, spec.wl, rc, exp));
        pilots.emplace_back(lengths[li],
                            rep.coefficientOfVariation);
        if (opt.verbose)
            std::printf("  pilot %llu txns: CoV %.2f%%\n",
                        static_cast<unsigned long long>(
                            lengths[li]),
                        rep.coefficientOfVariation);
    }
    if (pilots.size() < 2) {
        // Degenerate budget: every length collapsed to the floor.
        pilots.emplace_back(pilots.front().first + 1,
                            pilots.front().second);
    }

    const core::BudgetPlan bp = core::planBudget(
        pilots, spec.budgetTxns,
        std::max<std::size_t>(2, spec.stop.pilotRuns),
        spec.stop.confidence);
    if (opt.verbose)
        std::printf("campaign: budget plan: %s\n",
                    bp.toString().c_str());

    PlanRecord rec;
    rec.runLength = bp.runLength;
    rec.numRuns = bp.numRuns;
    store.appendPlan(rec);
    return store.plan();
}

/** The spec actually executed, after the budget plan is applied. */
CampaignSpec
effectiveSpec(const CampaignSpec &spec, const PlanRecord &plan)
{
    CampaignSpec eff = spec;
    if (!plan.valid)
        return eff;
    eff.run.measureTxns = plan.runLength;
    if (eff.stop.fixedRuns) {
        eff.stop.fixedRuns =
            std::min(eff.stop.fixedRuns, plan.numRuns);
    } else if (eff.stop.relativeError == 0.0 &&
               eff.stop.alpha == 0.0) {
        // No adaptive criterion: the plan's run count is the rule.
        eff.stop.fixedRuns =
            std::max<std::size_t>(2, plan.numRuns);
    } else {
        eff.stop.maxRuns = std::clamp(plan.numRuns,
                                      eff.stop.pilotRuns,
                                      eff.stop.maxRuns);
    }
    return eff;
}

} // anonymous namespace

/**
 * Lazy, library-backed supplier of warm-up checkpoints.
 *
 * A configuration is warmed only when ensureConfigs() names it — the
 * scheduler names exactly the configurations whose cells this shard
 * owns this round, so a shard whose stripe misses a configuration
 * never pays its warm-up, and a completed campaign's re-invocation
 * warms nothing at all.
 *
 * With a library attached, every planned position is first looked up
 * on disk; the warmer only simulates from the last restorable
 * snapshot onward (a snapshot carries the perturbation RNG, so the
 * continued trajectory is bit-identical to the original warmer's)
 * and publishes whatever it had to build. The warmers are
 * deterministic, so all of this — lazily, from disk, or re-derived,
 * on whichever thread — yields byte-identical starting states.
 *
 * Configurations warm independently: each has a once-guard, so a
 * configuration warms once, on whichever thread first needs it, and
 * threads that need others do not wait for it.
 */
class CheckpointWarmer
{
  public:
    /** @p lib may be null: checkpoints are then rebuilt in memory. */
    CheckpointWarmer(const CampaignSpec &spec,
                     const CampaignOptions &opt,
                     std::unique_ptr<ckpt::CheckpointLibrary> lib)
        : spec(spec), opt(opt), lib(std::move(lib))
    {
        if (!spec.numCheckpoints)
            return;
        positions = core::planCheckpoints(
            spec.strategy,
            spec.checkpointStep * spec.numCheckpoints,
            spec.numCheckpoints, spec.baseSeed);
        cps.resize(spec.configs.size());
        once = std::make_unique<std::once_flag[]>(spec.configs.size());
    }

    /**
     * Make the checkpoints of every configuration in @p configs
     * (distinct) available, the configurations concurrently on the
     * pool with opt.hostThreads workers. Verbose lines print in the
     * order of @p configs once all are ready. Safe to call from many
     * threads: a configuration another call is warming is waited
     * for, and one already warmed costs nothing.
     */
    void
    ensureConfigs(const std::vector<std::size_t> &configs)
    {
        if (!spec.numCheckpoints)
            return;
        std::vector<std::string> lines(configs.size());
        core::HostThreadPool::instance().parallelFor(
            configs.size(), opt.hostThreads, [&](std::size_t k) {
                std::call_once(once[configs[k]], [&] {
                    lines[k] = warm(configs[k]);
                });
            });
        if (opt.verbose)
            for (const std::string &line : lines)
                std::fputs(line.c_str(), stdout);
    }

    /** Checkpoint of (config, position); ensureConfigs'd first. */
    const core::Checkpoint &
    get(std::size_t config, std::size_t ck) const
    {
        VARSIM_ASSERT(!cps[config].empty(),
                      "checkpoint for config %zu requested before "
                      "it was warmed", config);
        return cps[config][ck];
    }

    const ckpt::CheckpointLibrary *library() const { return lib.get(); }

    std::size_t restoredCount() const { return restored.load(); }
    std::size_t warmedCount() const { return warmed.load(); }

  private:
    /**
     * Restore or re-simulate config @p c's checkpoints; runs once per
     * configuration, under its once-guard. The library's fetches run
     * on the pool too, and the re-entrant parallelFor's caller claims
     * indices itself, so they finish even when every other worker is
     * busy or waiting on a once-guard. Returns the verbose line.
     */
    std::string
    warm(std::size_t c)
    {
        const std::uint64_t warmSeed = spec.groupSeed(
            spec.numGroups() + kBudgetPilotGroups + c, 0);
        auto &dst = cps[c];
        dst.resize(positions.size());

        // Longest restorable prefix. Every position is fetched at
        // once (independent reads and checksums), but a hit beyond a
        // miss is unusable: the warmer must re-simulate *through* the
        // missing position, which re-derives the later ones anyway.
        std::size_t prefix = 0;
        if (lib) {
            std::vector<char> hit(positions.size(), 0);
            core::HostThreadPool::instance().parallelFor(
                positions.size(), opt.hostThreads,
                [&](std::size_t i) {
                    hit[i] = lib->fetch(
                        keyFor(c, warmSeed, positions[i]), dst[i]);
                });
            while (prefix < positions.size() && hit[prefix])
                ++prefix;
        }
        restored += prefix;
        if (prefix == positions.size())
            return sim::format("campaign: restored %zu checkpoint(s) "
                               "for %s from %s\n", prefix,
                               spec.configs[c].name.c_str(),
                               opt.ckptDir.c_str());

        std::unique_ptr<core::Simulation> warmer;
        std::uint64_t done = 0;
        if (prefix) {
            warmer = core::Simulation::restore(
                spec.configs[c].sys, spec.wl, dst[prefix - 1]);
            done = positions[prefix - 1];
        } else {
            warmer = std::make_unique<core::Simulation>(
                spec.configs[c].sys, spec.wl);
            warmer->seedPerturbation(warmSeed);
        }
        for (std::size_t i = prefix; i < positions.size(); ++i) {
            warmer->runTransactions(positions[i] - done);
            done = positions[i];
            dst[i] = warmer->checkpoint();
            ++warmed;
            if (lib)
                lib->publish(keyFor(c, warmSeed, positions[i]), dst[i]);
        }
        return sim::format("campaign: warming %zu checkpoint(s) for "
                           "%s (%zu restored)...\n",
                           positions.size() - prefix,
                           spec.configs[c].name.c_str(), prefix);
    }

    ckpt::CheckpointKey
    keyFor(std::size_t c, std::uint64_t warmSeed,
           std::uint64_t position) const
    {
        ckpt::CheckpointKey key;
        key.sys = spec.configs[c].sys;
        key.wl = spec.wl;
        key.warmupSeed = warmSeed;
        key.position = position;
        return key;
    }

    const CampaignSpec &spec;
    const CampaignOptions &opt;
    std::vector<std::uint64_t> positions;
    std::vector<std::vector<core::Checkpoint>> cps;
    std::unique_ptr<std::once_flag[]> once; ///< one per configuration
    std::unique_ptr<ckpt::CheckpointLibrary> lib;
    std::atomic<std::size_t> restored{0};
    std::atomic<std::size_t> warmed{0};
};

WarmupResult
warmCampaignCheckpoints(const CampaignSpec &spec,
                        const CampaignOptions &opt)
{
    spec.validate();
    if (!spec.numCheckpoints)
        sim::fatal("this campaign plans no checkpoints; nothing to "
                   "pre-warm (set a checkpoint count)");
    if (opt.ckptDir.empty())
        sim::fatal("pre-warming needs a library directory");

    CheckpointWarmer warmer(spec, opt,
                            ckpt::CheckpointLibrary::open(opt.ckptDir));
    std::vector<std::size_t> configs(spec.configs.size());
    std::iota(configs.begin(), configs.end(), std::size_t{0});
    warmer.ensureConfigs(configs);

    WarmupResult r;
    r.restored = warmer.restoredCount();
    r.warmed = warmer.warmedCount();
    const auto st = warmer.library()->stats();
    r.libraryEntries = st.entries;
    r.libraryBytes = st.bytes;
    return r;
}

std::unique_ptr<Execution>
Execution::tryCreate(const CampaignSpec &spec,
                     const std::string &dir,
                     const CampaignOptions &opt, std::string *err)
{
    auto fail = [&](std::string msg) {
        if (err)
            *err = std::move(msg);
        return std::unique_ptr<Execution>();
    };

    std::string why;
    if (!spec.check(&why))
        return fail(std::move(why));
    if (opt.shardCount == 0 || opt.shardIndex >= opt.shardCount)
        return fail(sim::format("bad shard %zu/%zu", opt.shardIndex,
                                opt.shardCount));

    std::unique_ptr<Execution> ex(new Execution);
    ex->opt = opt;
    ex->store = ResultStore::tryOpenOrCreate(dir, headerFor(spec),
                                             err);
    if (!ex->store)
        return nullptr;

    PlanRecord plan;
    if (spec.budgetTxns)
        plan = planTheBudget(spec, *ex->store, ex->opt);
    ex->eff = effectiveSpec(spec, plan);

    std::unique_ptr<ckpt::CheckpointLibrary> lib;
    if (ex->eff.numCheckpoints && !opt.ckptDir.empty()) {
        lib = ckpt::CheckpointLibrary::tryOpen(opt.ckptDir, err);
        if (!lib)
            return nullptr;
    }
    ex->warmer = std::make_unique<CheckpointWarmer>(ex->eff, ex->opt,
                                                    std::move(lib));
    return ex;
}

Execution::~Execution() = default;

std::vector<GroupDecision>
Execution::decideFromStore() const
{
    const std::size_t groups = eff.numGroups();

    // The stopping controller only ever reads the pilot prefix (the
    // fixed-runs path reads no metrics at all), so cap the replayed
    // vectors there: decisions stay bit-identical while the cost of
    // a decision stops growing with the number of recorded runs.
    const std::size_t pilotCap =
        eff.stop.fixedRuns ? 0 : eff.stop.pilotRuns;

    std::vector<std::vector<double>> metrics(groups);
    for (std::size_t g = 0; g < groups; ++g)
        metrics[g] = store->groupMetric(g, pilotCap);
    // Sampled specs: hand the controller each run's within-run CI
    // half-width so the stopping rule sizes the sample against the
    // full (between + within) uncertainty.
    std::vector<std::vector<double>> ciHalf;
    if (eff.run.sample.enabled()) {
        ciHalf.resize(groups);
        for (std::size_t g = 0; g < groups; ++g) {
            const auto lo = store->groupMetricNamed(
                g, "sim.sampled.cpt_lo", pilotCap);
            const auto hi = store->groupMetricNamed(
                g, "sim.sampled.cpt_hi", pilotCap);
            const std::size_t n = std::min(lo.size(), hi.size());
            ciHalf[g].reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                ciHalf[g].push_back((hi[i] - lo[i]) / 2.0);
        }
    }
    return decideTargets(eff, metrics, ciHalf);
}

std::vector<Cell>
Execution::pendingCells()
{
    const std::size_t groups = eff.numGroups();
    // Stable cell ids for sharding: group-major with the per-group
    // cap as the stride (constant for the life of the store).
    const std::size_t cellStride =
        std::max(eff.stop.fixedRuns, eff.stop.maxRuns);
    auto dec = decideFromStore();

    std::vector<Cell> work;
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t i = 0; i < dec[g].target; ++i) {
            if (store->hasRun(g, i))
                continue;
            const std::size_t cellId = g * cellStride + i;
            if (cellId % opt.shardCount != opt.shardIndex)
                continue;
            work.push_back({g, i});
        }
    }

    std::lock_guard<std::mutex> lk(mu);
    decisions_ = std::move(dec);
    return work;
}

std::vector<GroupDecision>
Execution::decisions() const
{
    std::lock_guard<std::mutex> lk(mu);
    return decisions_;
}

void
Execution::prepareCell(const Cell &cell)
{
    prepareCells({cell});
}

void
Execution::prepareCells(const std::vector<Cell> &cells)
{
    if (!eff.numCheckpoints)
        return;
    // Each configuration once, in the order the cells first name it.
    std::vector<std::size_t> configs;
    for (const Cell &cell : cells) {
        const std::size_t c = eff.configOf(cell.group);
        if (std::find(configs.begin(), configs.end(), c) ==
            configs.end())
            configs.push_back(c);
    }
    warmer->ensureConfigs(configs);
}

RunRecord
Execution::runCell(const Cell &cell)
{
    // Give every trace line this run emits a durable identity
    // (group/run), matching the store's cell.
    sim::trace::RunScope scope(
        sim::format("g%zu.r%zu", cell.group, cell.runIdx));
    const std::size_t cfg = eff.configOf(cell.group);
    const std::size_t ck = eff.ckptOf(cell.group);

    core::RunConfig rc = eff.run;
    rc.perturbSeed = eff.groupSeed(cell.group, cell.runIdx);

    core::RunResult res;
    if (eff.numCheckpoints) {
        rc.warmupTxns = 0; // the checkpoint warmed up
        res = core::runFromCheckpoint(eff.configs[cfg].sys, eff.wl,
                                      warmer->get(cfg, ck), rc);
    } else {
        res = core::runOnce(eff.configs[cfg].sys, eff.wl, rc);
    }

    RunRecord rec;
    rec.group = cell.group;
    rec.configIdx = cfg;
    rec.ckptIdx = ck;
    rec.runIdx = cell.runIdx;
    rec.seed = rc.perturbSeed;
    rec.cyclesPerTxn = res.cyclesPerTxn;
    rec.runtimeTicks =
        static_cast<std::uint64_t>(res.runtimeTicks);
    rec.txns = res.txns;
    rec.metrics.reserve(res.stats.size());
    for (const auto &sv : res.stats)
        rec.metrics.emplace_back(sv.name, sv.value);
    store->appendRun(rec);

    std::lock_guard<std::mutex> lk(mu);
    ++executed;
    return rec;
}

std::size_t
Execution::runsExecuted() const
{
    std::lock_guard<std::mutex> lk(mu);
    return executed;
}

bool
Execution::complete()
{
    auto dec = decideFromStore();
    bool done = true;
    for (std::size_t g = 0; g < eff.numGroups(); ++g)
        if (store->runsInGroup(g) < dec[g].target)
            done = false;
    std::lock_guard<std::mutex> lk(mu);
    decisions_ = std::move(dec);
    return done;
}

void
Execution::recordCkptStats()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (ckptRecorded)
            return;
        ckptRecorded = true;
    }
    if (!warmer->library())
        return;
    const auto st = warmer->library()->stats();
    CkptStatsRecord rec;
    rec.dir = opt.ckptDir;
    rec.restored = warmer->restoredCount();
    rec.warmed = warmer->warmedCount();
    rec.entries = st.entries;
    rec.bytes = st.bytes;
    store->appendCkptStats(rec);
}

CampaignOutcome
Execution::outcome()
{
    const bool done = complete();
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t groups = eff.numGroups();
    CampaignOutcome out;
    out.runsExecuted = executed;
    out.runsRecorded = store->totalRuns();
    out.checkpointsRestored = warmer->restoredCount();
    out.checkpointsWarmed = warmer->warmedCount();
    out.targetRuns.resize(groups);
    out.recordedRuns.resize(groups);
    out.complete = done;
    for (std::size_t g = 0; g < groups; ++g) {
        out.targetRuns[g] = decisions_[g].target;
        out.recordedRuns[g] = store->runsInGroup(g);
    }
    return out;
}

std::size_t
Execution::checkpointsRestored() const
{
    return warmer->restoredCount();
}

std::size_t
Execution::checkpointsWarmed() const
{
    return warmer->warmedCount();
}

} // namespace campaign
} // namespace varsim
