#include "campaign/exec.hh"

#include <algorithm>
#include <cstdio>

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
 * A configuration is warmed only when ensureConfig() is called for
 * it — the scheduler calls it for exactly the configurations whose
 * cells this shard owns this round, so a shard whose stripe misses a
 * configuration never pays its warm-up, and a completed campaign's
 * re-invocation warms nothing at all.
 *
 * With a library attached, every planned position is first looked up
 * on disk; the warmer only simulates from the last restorable
 * snapshot onward (a snapshot carries the perturbation RNG, so the
 * continued trajectory is bit-identical to the original warmer's)
 * and publishes whatever it had to build. The warmers are
 * deterministic, so all of this — lazily, from disk, or re-derived —
 * yields byte-identical starting states.
 */
class CheckpointWarmer
{
  public:
    CheckpointWarmer(const CampaignSpec &spec,
                     const CampaignOptions &opt)
        : spec(spec), opt(opt)
    {
        if (!spec.numCheckpoints)
            return;
        positions = core::planCheckpoints(
            spec.strategy,
            spec.checkpointStep * spec.numCheckpoints,
            spec.numCheckpoints, spec.baseSeed);
        cps.resize(spec.configs.size());
        ready.assign(spec.configs.size(), 0);
        if (opt.sharedLibrary) {
            lib = opt.sharedLibrary;
        } else if (!opt.ckptDir.empty()) {
            owned = ckpt::CheckpointLibrary::open(opt.ckptDir);
            lib = owned.get();
        }
    }

    ~CheckpointWarmer()
    {
        for (const std::string &hex : pinnedDigests)
            lib->unpin(hex);
    }

    /**
     * Make config @p c's checkpoints available. Serial caller; the
     * library fetches run on the pool with opt.hostThreads workers.
     * The serve daemon passes hostThreads = 1, which keeps them
     * inline on its own worker.
     */
    void
    ensureConfig(std::size_t c)
    {
        if (!spec.numCheckpoints || ready[c])
            return;
        ready[c] = 1;
        const std::uint64_t warmSeed = spec.groupSeed(
            spec.numGroups() + kBudgetPilotGroups + c, 0);
        auto &dst = cps[c];
        dst.resize(positions.size());

        // Longest restorable prefix. Every position is fetched at
        // once (independent reads and checksums), but a hit beyond a
        // miss is unusable: the warmer must re-simulate *through* the
        // missing position, which re-derives the later ones anyway.
        // Every restored object is pinned for the warmer's lifetime:
        // another tenant's gc must not evict an object this campaign
        // restores from.
        std::size_t prefix = 0;
        if (lib) {
            std::vector<char> hit(positions.size(), 0);
            core::HostThreadPool::instance().parallelFor(
                positions.size(), opt.hostThreads,
                [&](std::size_t i) {
                    hit[i] = lib->fetch(
                        keyFor(c, warmSeed, positions[i]), dst[i]);
                });
            for (; prefix < positions.size() && hit[prefix]; ++prefix)
                pin(keyFor(c, warmSeed, positions[prefix]));
        }
        restored += prefix;
        if (prefix == positions.size()) {
            if (opt.verbose)
                std::printf("campaign: restored %zu checkpoint(s) "
                            "for %s from %s\n", prefix,
                            spec.configs[c].name.c_str(),
                            opt.ckptDir.c_str());
            return;
        }

        if (opt.verbose)
            std::printf("campaign: warming %zu checkpoint(s) for "
                        "%s (%zu restored)...\n",
                        positions.size() - prefix,
                        spec.configs[c].name.c_str(), prefix);
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
            if (lib) {
                const auto key =
                    keyFor(c, warmSeed, positions[i]);
                // Pin before publishing: no gc window between the
                // object landing on disk and the pin existing.
                pin(key);
                lib->publish(key, dst[i]);
            }
        }
    }

    /** Checkpoint of (config, position); ensureConfig'd first. */
    const core::Checkpoint &
    get(std::size_t config, std::size_t ck) const
    {
        VARSIM_ASSERT(ready[config],
                      "checkpoint for config %zu requested before "
                      "it was warmed", config);
        return cps[config][ck];
    }

    ckpt::CheckpointLibrary *library() const { return lib; }

    std::size_t restoredCount() const { return restored; }
    std::size_t warmedCount() const { return warmed; }

  private:
    /** Pin @p key's object until the warmer dies. */
    void
    pin(const ckpt::CheckpointKey &key)
    {
        lib->pin(key.digestHex());
        pinnedDigests.push_back(key.digestHex());
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
    std::vector<char> ready;
    std::unique_ptr<ckpt::CheckpointLibrary> owned;
    ckpt::CheckpointLibrary *lib = nullptr;
    std::vector<std::string> pinnedDigests;
    std::size_t restored = 0;
    std::size_t warmed = 0;
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

    CheckpointWarmer warmer(spec, opt);
    for (std::size_t c = 0; c < spec.configs.size(); ++c)
        warmer.ensureConfig(c);

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

    ex->warmer = std::make_unique<CheckpointWarmer>(ex->eff,
                                                    ex->opt);
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
    if (!eff.numCheckpoints)
        return;
    std::lock_guard<std::mutex> lk(warmMu);
    warmer->ensureConfig(eff.configOf(cell.group));
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
