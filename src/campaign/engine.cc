#include "campaign/engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "campaign/exec.hh"
#include "core/analysis.hh"
#include "core/thread_pool.hh"
#include "sim/logging.hh"
#include "stats/summary.hh"

namespace varsim
{
namespace campaign
{

namespace
{

/**
 * Group @p g's label from the store header: its configuration's
 * name, with " @ckptN" when the campaign has checkpoints.
 */
std::string
groupLabel(const StoreHeader &h, std::size_t g)
{
    const std::size_t slots =
        h.numCheckpoints ? h.numCheckpoints : 1;
    const std::size_t cfg = g / slots;
    std::string name = cfg < h.configNames.size()
                           ? h.configNames[cfg]
                           : sim::format("config%zu", cfg);
    if (h.numCheckpoints)
        name += sim::format(" @ckpt%zu", g % slots);
    return name;
}

} // anonymous namespace

CampaignOutcome
runCampaign(const CampaignSpec &spec, const std::string &dir,
            const CampaignOptions &opt)
{
    // All the mechanism lives in Execution (shared with the serve
    // daemon); this loop only sequences rounds on the host pool.
    std::string err;
    auto execp = Execution::tryCreate(spec, dir, opt, &err);
    if (!execp)
        sim::fatal("%s", err.c_str());
    Execution &exec = *execp;
    const CampaignSpec &eff = exec.effective();

    std::atomic<bool> interrupted{false};

    for (;;) {
        std::vector<Cell> work = exec.pendingCells();
        if (work.empty() || interrupted.load())
            break;

        // Warm (or restore) only the configurations this round's
        // owned cells actually start from, concurrently, before the
        // round's batch (the batch then runs cells only).
        exec.prepareCells(work);

        if (opt.verbose) {
            const auto dec = exec.decisions();
            std::printf("campaign: scheduling %zu run(s):\n",
                        work.size());
            for (std::size_t g = 0; g < eff.numGroups(); ++g)
                std::printf(
                    "  %-24s %zu/%zu recorded (%s)\n",
                    eff.groupName(g).c_str(),
                    exec.resultStore().groupMetric(g).size(),
                    dec[g].target, dec[g].reason.c_str());
        }

        core::HostThreadPool::instance().parallelFor(
            work.size(), opt.hostThreads, [&](std::size_t k) {
                if (interrupted.load())
                    return; // unclaimed cells die with the "kill"
                exec.runCell(work[k]);
                if (opt.interruptAfter &&
                    exec.runsExecuted() >= opt.interruptAfter)
                    interrupted.store(true);
            });

        if (interrupted.load())
            break;
    }

    exec.recordCkptStats();
    CampaignOutcome out = exec.outcome();
    out.interrupted = interrupted.load();
    return out;
}

std::string
CampaignStatus::toString() const
{
    std::string s = sim::format(
        "campaign store: %zu group(s), %zu run(s) recorded "
        "(workload %s%s)\n",
        header.numGroups, totalRuns, header.workload.c_str(),
        header.numCheckpoints
            ? sim::format(", %zu checkpoints",
                          header.numCheckpoints)
                  .c_str()
            : "");
    if (plan.valid)
        s += sim::format(
            "budget plan: %zu runs of %llu txns per group\n",
            plan.numRuns,
            static_cast<unsigned long long>(plan.runLength));
    if (ckpt.valid)
        s += sim::format(
            "checkpoint library %s: %zu entr%s, %llu byte(s); last "
            "run restored %zu, warmed %zu\n",
            ckpt.dir.c_str(), ckpt.entries,
            ckpt.entries == 1 ? "y" : "ies",
            static_cast<unsigned long long>(ckpt.bytes),
            ckpt.restored, ckpt.warmed);
    if (segmentRuns)
        s += sim::format(
            "compacted: %zu run(s) in 1 segment(s), %zu in the "
            "journal tail\n", segmentRuns, tailRuns);
    for (std::size_t g = 0; g < runsPerGroup.size(); ++g)
        s += sim::format("  %-24s %zu run(s)\n",
                         groupNames[g].c_str(), runsPerGroup[g]);
    return s;
}

CampaignStatus
campaignStatus(const std::string &dir)
{
    auto store = ResultStore::openReadOnly(dir);
    CampaignStatus st;
    st.header = store->header();
    st.plan = store->plan();
    st.ckpt = store->ckptStats();
    st.totalRuns = store->totalRuns();
    st.segmentRuns = store->segmentRunCount();
    st.tailRuns = store->tailRunCount();
    for (std::size_t g = 0; g < st.header.numGroups; ++g) {
        st.runsPerGroup.push_back(store->runsInGroup(g));
        st.groupNames.push_back(groupLabel(st.header, g));
    }
    return st;
}

CampaignReport
campaignReport(const std::string &dir, double confidence)
{
    auto store = ResultStore::openReadOnly(dir);
    const StoreHeader &h = store->header();
    const std::size_t slots =
        h.numCheckpoints ? h.numCheckpoints : 1;
    const std::size_t numConfigs =
        slots ? h.numGroups / slots : 0;

    CampaignReport rep;
    rep.text = sim::format(
        "campaign report (%zu run(s), workload %s)\n",
        store->totalRuns(), h.workload.c_str());

    // A store with no completed runs yet (freshly created, or a
    // daemon campaign still in its pilot) has nothing to summarize;
    // say so instead of printing an empty table per group.
    if (store->totalRuns() == 0) {
        rep.text +=
            "\nno completed runs recorded yet — nothing to "
            "report.\nrun `varsim campaign run` (or let the serve "
            "daemon finish) and try again; `varsim campaign "
            "status` shows per-group progress.\n";
        return rep;
    }

    // Presence only, no counts: resumed and uninterrupted campaigns
    // warm different amounts yet must report byte-identically.
    if (store->ckptStats().valid)
        rep.text += sim::format(
            "note: warm-up checkpoints served from library %s "
            "(restored snapshots are bit-identical to re-warmed "
            "ones)\n",
            store->ckptStats().dir.c_str());

    // Each group's metric is fetched and summarized once; its lines
    // and every pair read that summary (n = 0: too few runs).
    std::vector<stats::Summary> sums(h.numGroups);
    for (std::size_t g = 0; g < h.numGroups; ++g) {
        const auto xs = store->groupMetric(g);
        rep.text += sim::format("\n%s:\n", groupLabel(h, g).c_str());
        if (xs.size() < 2) {
            rep.text += sim::format("  %zu run(s): too few for "
                                    "statistics\n", xs.size());
            continue;
        }
        const stats::Summary &s = sums[g] = stats::summarize(xs);
        rep.text +=
            "  " + core::analyze(s).toString() + "\n";
        const auto ci =
            stats::meanConfidenceInterval(s, confidence);
        rep.text += sim::format(
            "  %.0f%% CI for the mean: [%.0f, %.0f]\n",
            100.0 * confidence, ci.lo, ci.hi);
        // Sampled runs: surface the second uncertainty level (the
        // average within-run sampling CI) next to the run-to-run
        // one, so the reader sees how much of the spread the
        // estimator itself contributes.
        const auto sEnabled =
            store->groupMetricNamed(g, "sim.sampled.enabled", 1);
        if (!sEnabled.empty() && sEnabled.front() != 0.0) {
            const auto sLo = store->groupMetricNamed(
                g, "sim.sampled.cpt_lo");
            const auto sHi = store->groupMetricNamed(
                g, "sim.sampled.cpt_hi");
            const auto sWin = store->groupMetricNamed(
                g, "sim.sampled.windows");
            const std::size_t n =
                std::min(sLo.size(), sHi.size());
            if (n > 0) {
                double half = 0.0, wins = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    half += (sHi[i] - sLo[i]) / 2.0;
                half /= static_cast<double>(n);
                for (double w : sWin)
                    wins += w;
                if (!sWin.empty())
                    wins /= static_cast<double>(sWin.size());
                rep.text += sim::format(
                    "  sampled estimates: %.1f window(s)/run, "
                    "avg within-run CI half-width %.1f (%.2f%% "
                    "of the mean)\n",
                    wins, half,
                    s.mean != 0.0 ? 100.0 * half / s.mean : 0.0);
            }
        }
    }

    bool anyPair = false;
    for (std::size_t ck = 0; ck < slots; ++ck) {
        for (std::size_t a = 0; a < numConfigs; ++a) {
            for (std::size_t b = a + 1; b < numConfigs; ++b) {
                const auto &sa = sums[a * slots + ck];
                const auto &sb = sums[b * slots + ck];
                if (sa.n < 2 || sb.n < 2)
                    continue;
                if (!anyPair) {
                    rep.text += sim::format(
                        "\ncomparisons (at %.0f%% confidence):\n",
                        100.0 * confidence);
                    anyPair = true;
                }
                rep.text += sim::format(
                    "  %s vs %s:\n    %s\n",
                    groupLabel(h, a * slots + ck).c_str(),
                    groupLabel(h, b * slots + ck).c_str(),
                    core::judge(sa, sb, confidence).verdict().c_str());
            }
        }
    }
    return rep;
}

CampaignReport
campaignMetricReport(const std::string &dir,
                     const std::string &metric, double confidence)
{
    auto store = ResultStore::openReadOnly(dir);
    const StoreHeader &h = store->header();

    CampaignReport rep;
    if (metric == "list") {
        rep.text = "available metrics:\n";
        for (const auto &name : store->metricNames())
            rep.text += "  " + name + "\n";
        return rep;
    }

    if (store->totalRuns() == 0) {
        rep.text = sim::format(
            "campaign metric report: %s\n\nno completed runs "
            "recorded yet — nothing to report.\n", metric.c_str());
        return rep;
    }

    bool any = false;
    rep.text = sim::format("campaign metric report: %s\n",
                           metric.c_str());
    for (std::size_t g = 0; g < h.numGroups; ++g) {
        const auto xs = store->groupMetricNamed(g, metric);
        rep.text += sim::format("\n%s:\n", groupLabel(h, g).c_str());
        if (xs.size() < 2) {
            rep.text += sim::format("  %zu run(s) with this metric: "
                                    "too few for statistics\n",
                                    xs.size());
            continue;
        }
        any = true;
        const stats::Summary s = stats::summarize(xs);
        rep.text += "  " + core::analyze(s).toString() + "\n";
        const auto ci = stats::meanConfidenceInterval(s, confidence);
        rep.text += sim::format(
            "  %.0f%% CI for the mean: [%.4g, %.4g]\n",
            100.0 * confidence, ci.lo, ci.hi);
    }
    if (!any) {
        rep.text += "\nno group has 2+ runs carrying this metric; "
                    "run `campaign report --metric list` for the "
                    "recorded names\n";
    }
    return rep;
}

} // namespace campaign
} // namespace varsim
