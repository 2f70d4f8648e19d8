/**
 * @file
 * Scheduler tests: admission (validation, fingerprint skew,
 * duplicates), multi-tenant completion, durable cancel, hard-stop
 * crash simulation + resumeAll, and the headline contract — a
 * served campaign's records and report are bit-identical to the
 * same submission run through the CLI's runCampaign path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/knobs.hh"
#include "serve/scheduler.hh"
#include "serve/schema.hh"
#include "sim/logging.hh"

namespace
{

using namespace varsim;

std::string
freshRoot(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_sched_" + name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

/** Small, fast campaign fields every test starts from. */
campaign::SpecFields
smallFields(std::uint64_t seed = 11)
{
    campaign::SpecFields f;
    f.base["cpus"] = "2";
    f.workload = "oltp";
    f.threadsPerCpu = 2;
    f.warmupTxns = 5;
    f.measureTxns = 20;
    f.baseSeed = seed;
    f.fixedRuns = 3;
    return f;
}

serve::Submission
makeSub(const std::string &tenant, const std::string &name,
        const campaign::SpecFields &fields, int priority = 0)
{
    serve::Submission sub;
    sub.tenant = tenant;
    sub.name = name;
    sub.priority = priority;
    sub.fields = fields;
    campaign::CampaignSpec spec;
    std::string err;
    EXPECT_TRUE(campaign::buildSpec(fields, spec, &err)) << err;
    sub.fingerprintHex = sim::format(
        "%016llx",
        static_cast<unsigned long long>(spec.fingerprint()));
    return sub;
}

/** Sorted full record lines of a manifest (order-independent). */
std::multiset<std::string>
manifestRecords(const std::string &dir)
{
    std::multiset<std::string> out;
    std::ifstream in(dir + "/manifest.jsonl");
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            out.insert(line);
    return out;
}

TEST(ServeScheduler, RunsOneCampaignToCompletion)
{
    const std::string root = freshRoot("single");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 2;
    serve::Scheduler sched(cfg);

    std::string err;
    ASSERT_TRUE(sched.submit(makeSub("alice", "one", smallFields()),
                             &err))
        << err;
    sched.drain();

    serve::CampaignInfo info;
    ASSERT_TRUE(sched.info("alice/one", info));
    EXPECT_EQ(info.state, "complete");
    EXPECT_EQ(info.recorded, 3u);
    EXPECT_EQ(info.target, 3u);
    EXPECT_EQ(sched.cellsExecuted(), 3u);

    // Events: a round announcement, one per run, then complete.
    std::vector<serve::Event> events;
    bool terminal = false;
    std::uint64_t cursor = 0;
    ASSERT_TRUE(
        sched.waitEvents("alice/one", cursor, 0, events, &terminal));
    ASSERT_TRUE(terminal);
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events.front().kind, "round");
    EXPECT_EQ(events.back().kind, "complete");
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, i + 1);
}

TEST(ServeScheduler, ServedRecordsAreBitIdenticalToTheCli)
{
    const campaign::SpecFields fields = smallFields(77);

    // CLI path: the same fields through buildSpec + runCampaign.
    const std::string cliDir = freshRoot("bitcli") + "/store";
    campaign::CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(campaign::buildSpec(fields, spec, &err)) << err;
    campaign::CampaignOptions opt;
    opt.hostThreads = 2;
    campaign::runCampaign(spec, cliDir, opt);

    // Daemon path: the same fields as a submission.
    const std::string root = freshRoot("bitsrv");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 3;
    serve::Scheduler sched(cfg);
    ASSERT_TRUE(sched.submit(makeSub("t", "c", fields), &err))
        << err;
    sched.drain();

    // Same record set (append order is scheduling-dependent even
    // between two CLI runs, so compare as sets) and the same
    // rendered report, byte for byte.
    const auto cli = manifestRecords(cliDir);
    const auto srv = manifestRecords(sched.storeDir("t/c"));
    EXPECT_EQ(cli, srv);
    EXPECT_EQ(campaign::campaignReport(cliDir).text,
              campaign::campaignReport(sched.storeDir("t/c")).text);
}

TEST(ServeScheduler, ManyTenantsAllComplete)
{
    const std::string root = freshRoot("tenants");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 4;
    serve::Scheduler sched(cfg);

    std::string err;
    const char *tenants[] = {"alice", "bob", "carol"};
    for (const char *tenant : tenants)
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(
                sched.submit(
                    makeSub(tenant, "c" + std::to_string(i),
                            smallFields(100 + i), i),
                    &err))
                << err;
    sched.drain();

    const auto infos = sched.status();
    ASSERT_EQ(infos.size(), 9u);
    for (const auto &info : infos)
        EXPECT_EQ(info.state, "complete") << info.id;
    EXPECT_EQ(sched.cellsExecuted(), 9u * 3u);

    const auto one = sched.status("bob");
    EXPECT_EQ(one.size(), 3u);
}

TEST(ServeScheduler, RejectsBadSubmissions)
{
    const std::string root = freshRoot("reject");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 1;
    serve::Scheduler sched(cfg);
    std::string err;

    // Fingerprint skew: client claims a different spec.
    serve::Submission skew = makeSub("t", "skew", smallFields());
    skew.fingerprintHex = "deadbeefdeadbeef";
    EXPECT_FALSE(sched.submit(skew, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos);

    // Bad spec fields surface buildSpec's own message.
    campaign::SpecFields bad = smallFields();
    bad.strategy = "psychic";
    serve::Submission badSub;
    badSub.tenant = "t";
    badSub.name = "bad";
    badSub.fields = bad;
    badSub.fingerprintHex = "1";
    EXPECT_FALSE(sched.submit(badSub, &err));
    EXPECT_NE(err.find("strategy"), std::string::npos);

    // Bad names never become paths.
    serve::Submission traversal = makeSub("t", "ok", smallFields());
    traversal.tenant = "../up";
    EXPECT_FALSE(sched.submit(traversal, &err));

    // Same id, identical fields: idempotent ack. Different
    // fields: conflict.
    ASSERT_TRUE(sched.submit(makeSub("t", "dup", smallFields()),
                             &err))
        << err;
    EXPECT_TRUE(
        sched.submit(makeSub("t", "dup", smallFields()), &err));
    EXPECT_FALSE(sched.submit(
        makeSub("t", "dup", smallFields(999)), &err));
    EXPECT_NE(err.find("different fields"), std::string::npos);
    sched.drain();
}

TEST(ServeScheduler, RefusesAndSkipsBudgetsThePlannerCannotSplit)
{
    // The budget planner runs pilotRuns runs per pilot length and
    // must afford them: a spec it cannot split is refused at submit,
    // and a stored one is skipped at restart instead of aborting the
    // daemon while it resumes everyone else.
    const std::string root = freshRoot("budget");
    campaign::SpecFields bad = smallFields();
    bad.fixedRuns = 0;
    bad.budgetTxns = 5;
    bad.pilotRuns = 6;
    serve::Submission badSub;
    badSub.tenant = "t";
    badSub.name = "bad";
    badSub.fields = bad;
    badSub.fingerprintHex = "1";
    std::string err;
    {
        serve::SchedulerConfig cfg;
        cfg.root = root;
        cfg.workers = 1;
        serve::Scheduler sched(cfg);
        EXPECT_FALSE(sched.submit(badSub, &err));
        EXPECT_NE(err.find("cannot afford 6 pilot runs"),
                  std::string::npos)
            << err;
        campaign::SpecFields noPilot = bad;
        noPilot.fixedRuns = 4;
        noPilot.budgetTxns = 1000;
        noPilot.pilotRuns = 0;
        badSub.fields = noPilot;
        EXPECT_FALSE(sched.submit(badSub, &err));
        EXPECT_NE(err.find("pilotRuns >= 2"), std::string::npos)
            << err;
    }

    // What an older daemon acknowledged and stored.
    badSub.fields = bad;
    const std::string dir = root + "/tenants/t/bad";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/submission.json")
        << serve::encodeSubmission(badSub) << "\n";

    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 1;
    serve::Scheduler sched(cfg);
    ASSERT_TRUE(
        sched.submit(makeSub("u", "good", smallFields()), &err))
        << err;
    EXPECT_EQ(sched.resumeAll(), 0u);
    sched.drain();
    serve::CampaignInfo info;
    EXPECT_FALSE(sched.info("t/bad", info));
    ASSERT_TRUE(sched.info("u/good", info));
    EXPECT_EQ(info.state, "complete");
}

TEST(ServeScheduler, ConflictingConcurrentSubmitsNeverBothAck)
{
    // Two clients race a first-time submit of the same id with
    // *different* fields: at most one may be acked, and whatever
    // lands in submission.json must be the acked job's fields —
    // otherwise a restart resumes a spec nobody was told is
    // running.
    const std::string root = freshRoot("race");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 2;
    serve::Scheduler sched(cfg);

    const serve::Submission a = makeSub("t", "conc", smallFields(1));
    const serve::Submission b = makeSub("t", "conc", smallFields(2));
    bool okA = false, okB = false;
    std::thread ta([&] {
        std::string err;
        okA = sched.submit(a, &err);
    });
    std::thread tb([&] {
        std::string err;
        okB = sched.submit(b, &err);
    });
    ta.join();
    tb.join();
    ASSERT_NE(okA, okB); // exactly one admitted

    const std::string onDisk =
        [&] {
            std::ifstream in(root + "/tenants/t/conc/submission.json");
            std::string line;
            std::getline(in, line);
            return line;
        }();
    EXPECT_EQ(onDisk, serve::encodeSubmission(okA ? a : b));

    // The loser keeps failing; the winner's resubmit still acks.
    std::string err;
    EXPECT_FALSE(sched.submit(okA ? b : a, &err));
    EXPECT_NE(err.find("different fields"), std::string::npos);
    EXPECT_TRUE(sched.submit(okA ? a : b, &err)) << err;
    sched.drain();
}

TEST(ServeScheduler, CancelRacesStartupSafely)
{
    // Cancel landing inside the startup -> first-frontier window
    // used to free the Execution a worker was still reading
    // (startJob dropped `starting` before replaying the store).
    // Hammer that window: each round submits and immediately
    // cancels from this thread while a worker is starting the job.
    // TSan runs of this suite hold the no-use-after-free claim.
    const std::string root = freshRoot("cancelrace");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 2;
    serve::Scheduler sched(cfg);
    std::string err;
    campaign::SpecFields big = smallFields();
    big.fixedRuns = 20;
    for (int i = 0; i < 20; ++i) {
        const std::string name = "r" + std::to_string(i);
        ASSERT_TRUE(
            sched.submit(makeSub("t", name, big, 0), &err))
            << err;
        ASSERT_TRUE(sched.cancel("t/" + name, &err)) << err;
    }
    sched.drain();
    for (const auto &info : sched.status()) {
        // Every job must reach a terminal state (cancelled, or
        // complete when the workers outran the cancel).
        EXPECT_TRUE(info.state == "cancelled" ||
                    info.state == "complete")
            << info.id << " stuck in " << info.state;
    }
}

TEST(ServeScheduler, WaitEventsClampsOutOfRangeCursor)
{
    const std::string root = freshRoot("cursor");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 1;
    serve::Scheduler sched(cfg);
    std::string err;
    ASSERT_TRUE(sched.submit(makeSub("t", "one", smallFields()),
                             &err))
        << err;
    sched.drain();

    // A cursor far past the last event must still observe the
    // terminal state (empty batch, terminal=true) instead of
    // keeping a watcher polling forever.
    std::vector<serve::Event> events;
    bool terminal = false;
    std::uint64_t cursor = 9999;
    ASSERT_TRUE(
        sched.waitEvents("t/one", cursor, 0, events, &terminal));
    EXPECT_TRUE(events.empty());
    EXPECT_TRUE(terminal);
    std::vector<serve::Event> all;
    std::uint64_t from = 0;
    ASSERT_TRUE(sched.waitEvents("t/one", from, 0, all, &terminal));
    EXPECT_EQ(cursor, all.size());
    EXPECT_EQ(from, all.size());
}

TEST(ServeScheduler, CancelIsDurable)
{
    const std::string root = freshRoot("cancel");
    std::string err;
    {
        serve::SchedulerConfig cfg;
        cfg.root = root;
        cfg.workers = 1;
        serve::Scheduler sched(cfg);
        campaign::SpecFields big = smallFields();
        big.fixedRuns = 50; // enough frontier to cancel into
        ASSERT_TRUE(sched.submit(makeSub("t", "big", big), &err))
            << err;
        ASSERT_TRUE(sched.cancel("t/big", &err)) << err;
        EXPECT_TRUE(sched.cancel("t/big", &err)); // idempotent
        EXPECT_FALSE(sched.cancel("t/nosuch", &err));
        sched.drain();
        serve::CampaignInfo info;
        ASSERT_TRUE(sched.info("t/big", info));
        EXPECT_EQ(info.state, "cancelled");
    }
    // A restarted scheduler sees the marker and never reruns it.
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 1;
    serve::Scheduler sched(cfg);
    EXPECT_EQ(sched.resumeAll(), 0u);
    serve::CampaignInfo info;
    ASSERT_TRUE(sched.info("t/big", info));
    EXPECT_EQ(info.state, "cancelled");
}

TEST(ServeScheduler, CancelMidRoundEndsTheStreamWithCancelled)
{
    const std::string root = freshRoot("cancelmid");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 2;
    serve::Scheduler sched(cfg);
    std::string err;
    campaign::SpecFields big = smallFields();
    big.fixedRuns = 50;
    ASSERT_TRUE(sched.submit(makeSub("t", "big", big), &err)) << err;

    // Wait for the first recorded run, then cancel mid-round.
    std::vector<serve::Event> events;
    bool terminal = false;
    for (std::uint64_t seen = 0;;) {
        std::vector<serve::Event> batch;
        ASSERT_TRUE(
            sched.waitEvents("t/big", seen, 1000, batch, &terminal));
        ASSERT_FALSE(terminal);
        if (std::any_of(batch.begin(), batch.end(), [](const auto &e) {
                return e.kind == "run";
            }))
            break;
    }
    ASSERT_TRUE(sched.cancel("t/big", &err)) << err;
    sched.drain();

    std::uint64_t cursor = 0;
    ASSERT_TRUE(
        sched.waitEvents("t/big", cursor, 0, events, &terminal));
    ASSERT_TRUE(terminal);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().kind, "cancelled");
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i + 1);
        if (i + 1 < events.size()) {
            EXPECT_TRUE(events[i].kind == "run" ||
                        events[i].kind == "round")
                << events[i].kind << " before the end";
        }
    }

    serve::CampaignInfo info;
    ASSERT_TRUE(sched.info("t/big", info));
    EXPECT_EQ(info.state, "cancelled");
    const auto store =
        campaign::ResultStore::openReadOnly(sched.storeDir("t/big"));
    EXPECT_EQ(info.recorded, store->totalRuns());
    EXPECT_LT(store->totalRuns(), 50u);
    EXPECT_EQ(events.back().recorded, store->totalRuns());

    // A second cancel is a no-op: acked, and no event follows.
    ASSERT_TRUE(sched.cancel("t/big", &err)) << err;
    std::vector<serve::Event> after;
    cursor = 0;
    ASSERT_TRUE(sched.waitEvents("t/big", cursor, 0, after, &terminal));
    EXPECT_EQ(after.size(), events.size());
}

TEST(ServeScheduler, HardStopThenResumeCompletesEverything)
{
    const std::string root = freshRoot("resume");
    const campaign::SpecFields fields = smallFields(33);
    std::string err;
    {
        serve::SchedulerConfig cfg;
        cfg.root = root;
        cfg.workers = 2;
        serve::Scheduler sched(cfg);
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(sched.submit(
                            makeSub(i % 2 ? "a" : "b",
                                    "c" + std::to_string(i),
                                    fields),
                            &err))
                << err;
        // Hard stop without drain: undispatched cells are simply
        // dropped, like a kill between store appends. The durable
        // state (submission.json + manifests) is all that's left.
        sched.stop();
    }

    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 2;
    serve::Scheduler sched(cfg);
    EXPECT_EQ(sched.resumeAll(), 4u);
    sched.drain();

    const auto infos = sched.status();
    ASSERT_EQ(infos.size(), 4u);
    for (const auto &info : infos) {
        EXPECT_EQ(info.state, "complete") << info.id;
        EXPECT_EQ(info.recorded, 3u) << info.id;
    }

    // And the resumed stores still match the CLI run bit for bit.
    const std::string cliDir = freshRoot("resumecli") + "/store";
    campaign::CampaignSpec spec;
    ASSERT_TRUE(campaign::buildSpec(fields, spec, &err)) << err;
    campaign::CampaignOptions opt;
    opt.hostThreads = 2;
    campaign::runCampaign(spec, cliDir, opt);
    EXPECT_EQ(manifestRecords(cliDir),
              manifestRecords(sched.storeDir("a/c1")));
}

TEST(ServeScheduler, DrainingRefusesNewWork)
{
    const std::string root = freshRoot("drainref");
    serve::SchedulerConfig cfg;
    cfg.root = root;
    cfg.workers = 1;
    serve::Scheduler sched(cfg);
    sched.drain(); // empty: returns immediately, stays draining
    std::string err;
    EXPECT_FALSE(
        sched.submit(makeSub("t", "late", smallFields()), &err));
    EXPECT_NE(err.find("draining"), std::string::npos);
}

} // namespace
