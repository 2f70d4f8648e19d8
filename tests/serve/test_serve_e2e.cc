/**
 * @file
 * Daemon-over-socket end-to-end tests: the full client/daemon wire
 * path (ping, submit, watch, status, report, cancel, drain), an
 * abrupt shutdown + restart resuming durable campaigns, and a soak
 * — many concurrent client threads pushing campaigns through one
 * daemon. The soak defaults to a ctest-friendly size; the
 * sanitized CI runner scales it up with VARSIM_SOAK_CAMPAIGNS.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/knobs.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace
{

using namespace varsim;

std::string
freshRoot(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_e2e_" + name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

serve::Address
sockAddr(const std::string &root)
{
    serve::Address addr;
    addr.isUnix = true;
    addr.path = root + "/serve.sock";
    return addr;
}

campaign::SpecFields
smallFields(std::uint64_t seed = 11, std::uint64_t runs = 2)
{
    campaign::SpecFields f;
    f.base["cpus"] = "2";
    f.workload = "oltp";
    f.threadsPerCpu = 2;
    f.warmupTxns = 2;
    f.measureTxns = 10;
    f.baseSeed = seed;
    f.fixedRuns = runs;
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
    return sub; // Client::submit stamps the fingerprint
}

TEST(ServeE2e, FullClientJourney)
{
    const std::string root = freshRoot("journey");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 2;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;

    serve::Client client(cfg.addr);
    ASSERT_TRUE(client.ping(&err)) << err;

    serve::Submission sub = makeSub("alice", "one", smallFields());
    ASSERT_TRUE(client.submit(sub, &err)) << err;
    EXPECT_EQ(sub.fingerprintHex.size(), 16u);

    // Watch from seq 0 to terminal; events arrive dense + ordered.
    std::vector<serve::Event> events;
    ASSERT_TRUE(client.watch(
        "alice/one", 0,
        [&](const serve::Event &ev) { events.push_back(ev); },
        &err))
        << err;
    ASSERT_GE(events.size(), 4u);
    EXPECT_EQ(events.back().kind, "complete");
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, i + 1);

    // A late joiner replays only what it asked for.
    std::vector<serve::Event> tail;
    ASSERT_TRUE(client.watch(
        "alice/one", events.size() - 1,
        [&](const serve::Event &ev) { tail.push_back(ev); },
        &err))
        << err;
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail.front().kind, "complete");

    std::vector<serve::CampaignInfo> infos;
    ASSERT_TRUE(client.status("", infos, &err)) << err;
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos.front().state, "complete");
    EXPECT_EQ(infos.front().recorded, 2u);

    // The served report is the CLI report of the same store.
    std::string text;
    ASSERT_TRUE(client.report("alice/one", 0.95, "", text, &err))
        << err;
    EXPECT_EQ(
        text,
        campaign::campaignReport(
            daemon.scheduler().storeDir("alice/one"))
            .text);
    EXPECT_NE(text.find("campaign report"), std::string::npos);

    // Unknown ids and junk are error replies, not hangs.
    EXPECT_FALSE(client.cancel("alice/nosuch", &err));
    EXPECT_FALSE(client.report("no-slash", 0.95, "", text, &err));
    serve::CampaignInfo info;
    EXPECT_FALSE(client.info("alice/nosuch", info, &err));

    ASSERT_TRUE(client.drain(&err)) << err;
    daemon.wait(); // the drain request stops the daemon
    daemon.shutdown();
}

TEST(ServeE2e, SubmitRejectionsCarryDaemonMessages)
{
    const std::string root = freshRoot("rejects");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 1;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    serve::Submission bad = makeSub("t", "bad", smallFields());
    bad.fields.workload = "quake"; // fails buildSpec client-side
    EXPECT_FALSE(client.submit(bad, &err));
    EXPECT_NE(err.find("workload"), std::string::npos);

    serve::Submission dup = makeSub("t", "dup", smallFields());
    ASSERT_TRUE(client.submit(dup, &err)) << err;
    serve::Submission dup2 =
        makeSub("t", "dup", smallFields(999));
    EXPECT_FALSE(client.submit(dup2, &err));
    EXPECT_NE(err.find("different fields"), std::string::npos);

    daemon.shutdown();
}

TEST(ServeE2e, WatchFromTheEndSeesOnlyTheEndFrame)
{
    const std::string root = freshRoot("watchend");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 1;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    serve::Submission sub = makeSub("t", "done", smallFields());
    ASSERT_TRUE(client.submit(sub, &err)) << err;
    std::size_t count = 0;
    ASSERT_TRUE(client.watch(
        sub.id(), 0, [&](const serve::Event &) { ++count; }, &err))
        << err;
    ASSERT_GT(count, 0u);

    // A cursor at the last event replays nothing: the end frame's
    // state is the only proof that the campaign finished.
    std::size_t replayed = 0;
    EXPECT_TRUE(client.watch(
        sub.id(), count, [&](const serve::Event &) { ++replayed; },
        &err))
        << err;
    EXPECT_EQ(replayed, 0u);
    daemon.shutdown();
}

TEST(ServeE2e, WatchEndFrameCountsOnlyEventsThatExist)
{
    const std::string root = freshRoot("watchcount");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 1;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    serve::Submission sub = makeSub("t", "a", smallFields());
    ASSERT_TRUE(client.submit(sub, &err)) << err;
    std::uint64_t count = 0;
    ASSERT_TRUE(client.watch(
        sub.id(), 0, [&](const serve::Event &) { ++count; }, &err))
        << err;
    ASSERT_GT(count, 0u);

    // A raw request with a cursor far past the last event: the end
    // frame counts the campaign's events, not the client's cursor.
    const int fd = serve::connectTo(cfg.addr, &err);
    ASSERT_GE(fd, 0) << err;
    serve::FrameIo io(fd);
    ASSERT_TRUE(io.send("{\"req\":\"watch\",\"id\":\"" + sub.id() +
                        "\",\"after\":999}"));
    std::string payload;
    sim::JsonLine frame;
    ASSERT_TRUE(io.recv(payload)) << io.errorText();
    ASSERT_TRUE(frame.parse(payload)) << payload;
    EXPECT_EQ(frame.str("type"), "end") << payload;
    EXPECT_EQ(frame.num("count"), count) << payload;
    EXPECT_EQ(frame.str("state"), "complete") << payload;
    daemon.shutdown();
}

TEST(ServeE2e, TerminalEventCarriesItsRunCount)
{
    const std::string root = freshRoot("terminalcount");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 1;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    serve::Submission sub = makeSub("t", "a", smallFields(11, 3));
    ASSERT_TRUE(client.submit(sub, &err)) << err;
    serve::Event last;
    ASSERT_TRUE(client.watch(
        sub.id(), 0, [&](const serve::Event &ev) { last = ev; }, &err))
        << err;
    serve::CampaignInfo info;
    ASSERT_TRUE(client.info(sub.id(), info, &err)) << err;
    EXPECT_EQ(last.kind, "complete");
    EXPECT_EQ(info.recorded, 3u);
    EXPECT_EQ(last.recorded, info.recorded);
    EXPECT_EQ(last.target, info.target);
    daemon.shutdown();
}

TEST(ServeE2e, StatusFiltersByTenant)
{
    const std::string root = freshRoot("statusfilter");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 2;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    for (int i = 0; i < 3; ++i) {
        serve::Submission sub = makeSub(i == 1 ? "bob" : "alice",
                                        "c" + std::to_string(i),
                                        smallFields());
        ASSERT_TRUE(client.submit(sub, &err)) << err;
    }
    std::vector<serve::CampaignInfo> infos;
    ASSERT_TRUE(client.status("alice", infos, &err)) << err;
    ASSERT_EQ(infos.size(), 2u);
    for (const auto &info : infos)
        EXPECT_EQ(info.id.rfind("alice/", 0), 0u) << info.id;
    ASSERT_TRUE(client.status("bob", infos, &err)) << err;
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos.front().id, "bob/c1");
    ASSERT_TRUE(client.status("", infos, &err)) << err;
    EXPECT_EQ(infos.size(), 3u);
    ASSERT_TRUE(client.drain(&err)) << err;
    daemon.wait();
    daemon.shutdown();
}

TEST(ServeE2e, ReportOfACampaignWithoutAStoreIsAnError)
{
    // One worker, one tenant: campaign a holds the worker while b,
    // submitted at a lower priority, is cancelled still queued and
    // so never gets a store. Reporting b must be an error reply: an
    // exit would take the daemon, and a with it, down.
    const std::string root = freshRoot("nostore");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 1;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    serve::Submission a = makeSub("t", "a", smallFields(11, 40));
    ASSERT_TRUE(client.submit(a, &err)) << err;
    serve::Submission b = makeSub("t", "b", smallFields(12, 2), -1);
    ASSERT_TRUE(client.submit(b, &err)) << err;
    ASSERT_TRUE(client.cancel(b.id(), &err)) << err;
    serve::CampaignInfo info;
    ASSERT_TRUE(client.info(b.id(), info, &err)) << err;
    EXPECT_EQ(info.state, "cancelled");
    EXPECT_EQ(info.recorded, 0u);

    std::string text;
    for (const char *metric : {"", "cycles_per_txn"}) {
        err.clear();
        EXPECT_FALSE(client.report(b.id(), 0.95, metric, text, &err))
            << metric;
        EXPECT_NE(err.find(b.id()), std::string::npos) << err;
        EXPECT_NE(err.find("cancelled"), std::string::npos) << err;
    }
    ASSERT_TRUE(client.ping(&err)) << err;

    serve::Event last;
    ASSERT_TRUE(client.watch(
        a.id(), 0, [&](const serve::Event &ev) { last = ev; }, &err))
        << err;
    EXPECT_EQ(last.kind, "complete");
    ASSERT_TRUE(client.info(a.id(), info, &err)) << err;
    EXPECT_EQ(info.recorded, 40u);
    ASSERT_TRUE(client.report(a.id(), 0.95, "", text, &err)) << err;
    ASSERT_TRUE(client.drain(&err)) << err;
    daemon.wait();
    daemon.shutdown();
}

/** Fields whose l2-assoc=3 variant has no power-of-two set count. */
campaign::SpecFields
unbuildableFields()
{
    campaign::SpecFields f = smallFields();
    f.vary = {"l2-assoc=3,4"};
    return f;
}

TEST(ServeE2e, UnbuildableConfigIsRefusedAndOthersKeepRunning)
{
    const std::string root = freshRoot("unbuildable");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 2;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    // The client refuses locally, naming the knob...
    serve::Submission bad =
        makeSub("mallory", "assoc3", unbuildableFields());
    EXPECT_FALSE(client.submit(bad, &err));
    EXPECT_NE(err.find("l2-assoc"), std::string::npos) << err;

    // ...and the daemon refuses the raw frame of a client that
    // skips that check, instead of acking it and aborting on its
    // first cell.
    bad.fingerprintHex = "0123456789abcdef";
    {
        const int fd = serve::connectTo(cfg.addr, &err);
        ASSERT_GE(fd, 0) << err;
        serve::FrameIo io(fd);
        ASSERT_TRUE(io.send(serve::encodeSubmission(bad)));
        std::string reply;
        ASSERT_TRUE(io.recv(reply));
        sim::JsonLine obj;
        ASSERT_TRUE(obj.parse(reply)) << reply;
        EXPECT_EQ(obj.str("type"), "error") << reply;
        EXPECT_NE(obj.str("message").find("l2-assoc"),
                  std::string::npos)
            << reply;
    }
    EXPECT_FALSE(std::filesystem::exists(root + "/tenants/mallory"))
        << "a refused submission was stored";

    // Another tenant's campaign on the same daemon completes.
    serve::Submission good = makeSub("alice", "fine", smallFields());
    ASSERT_TRUE(client.submit(good, &err)) << err;
    ASSERT_TRUE(client.drain(&err)) << err;
    const auto infos = daemon.scheduler().status();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos.front().id, "alice/fine");
    EXPECT_EQ(infos.front().state, "complete");
    EXPECT_EQ(infos.front().recorded, 2u);
    daemon.wait();
    daemon.shutdown();
}

TEST(ServeE2e, RestartSkipsAStoredUnbuildableSubmission)
{
    // A daemon without the configuration check acked and stored
    // this submission; its first cell then aborted the daemon, and
    // so did every restart that resumed it. Written here in that
    // daemon's on-disk layout and format.
    const std::string root = freshRoot("badresume");
    serve::Submission bad =
        makeSub("mallory", "assoc3", unbuildableFields());
    bad.fingerprintHex = "0123456789abcdef";
    const std::string dir = root + "/tenants/mallory/assoc3";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/submission.json")
        << serve::encodeSubmission(bad) << "\n";

    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 2;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    EXPECT_EQ(daemon.resumedCount(), 0u);

    serve::Client client(cfg.addr);
    serve::Submission good = makeSub("alice", "fine", smallFields());
    ASSERT_TRUE(client.submit(good, &err)) << err;
    ASSERT_TRUE(client.drain(&err)) << err;
    const auto infos = daemon.scheduler().status();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos.front().id, "alice/fine");
    EXPECT_EQ(infos.front().state, "complete");
    daemon.wait();
    daemon.shutdown();
}

TEST(ServeE2e, AbruptShutdownThenRestartResumes)
{
    const std::string root = freshRoot("restart");
    const campaign::SpecFields fields = smallFields(55, 3);
    std::string err;
    {
        serve::DaemonConfig cfg;
        cfg.root = root;
        cfg.addr = sockAddr(root);
        cfg.workers = 2;
        serve::Daemon daemon(cfg);
        ASSERT_TRUE(daemon.start(&err)) << err;
        serve::Client client(cfg.addr);
        for (int i = 0; i < 5; ++i) {
            serve::Submission sub = makeSub(
                i % 2 ? "a" : "b", "c" + std::to_string(i),
                fields);
            ASSERT_TRUE(client.submit(sub, &err)) << err;
        }
        // No drain: like a power cut, in-flight work is dropped
        // and only the durable state survives.
        daemon.shutdown();
    }

    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 2;
    serve::Daemon daemon(cfg);
    ASSERT_TRUE(daemon.start(&err)) << err;
    EXPECT_EQ(daemon.resumedCount(), 5u);

    serve::Client client(cfg.addr);
    ASSERT_TRUE(client.drain(&err)) << err;
    // drain stops the acceptor eventually; query the scheduler.
    for (const auto &info : daemon.scheduler().status()) {
        EXPECT_EQ(info.state, "complete") << info.id;
        EXPECT_EQ(info.recorded, 3u) << info.id;
    }
    daemon.wait();
    daemon.shutdown();
}

/** A 2-configuration x 2-checkpoint grid. */
campaign::SpecFields
checkpointedFields()
{
    campaign::SpecFields f = smallFields(21, 2);
    f.vary = {"l2-assoc=2,4"};
    f.numCheckpoints = 2;
    f.checkpointStep = 20;
    return f;
}

TEST(ServeE2e, CheckpointedCampaignsOpenTheDaemonLibrary)
{
    // Every checkpointed campaign opens its own handle on
    // <root>/ckpts: the first warms the library, a second with the
    // same fields restores all of it, and both report as the CLI
    // engine does over the same library. A library a campaign
    // cannot open fails that campaign alone.
    const std::string root = freshRoot("ckpts");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 2;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    serve::Client client(cfg.addr);

    // Watch campaign @p id to its terminal event and return it.
    auto finish = [&](const std::string &id) {
        serve::Event last;
        EXPECT_TRUE(client.watch(
            id, 0, [&](const serve::Event &ev) { last = ev; }, &err))
            << err;
        return last;
    };
    auto status = [&](const std::string &id) {
        return campaign::campaignStatus(
                   daemon.scheduler().storeDir(id))
            .toString();
    };

    const campaign::SpecFields fields = checkpointedFields();
    for (const char *name : {"first", "second"}) {
        serve::Submission sub = makeSub("alice", name, fields);
        ASSERT_TRUE(client.submit(sub, &err)) << err;
        const serve::Event last = finish(sub.id());
        ASSERT_EQ(last.kind, "complete") << last.message;
    }
    EXPECT_NE(status("alice/first").find("restored 0, warmed 4"),
              std::string::npos)
        << status("alice/first");
    EXPECT_NE(status("alice/second").find("restored 4, warmed 0"),
              std::string::npos)
        << status("alice/second");

    campaign::CampaignSpec spec;
    ASSERT_TRUE(campaign::buildSpec(fields, spec, &err)) << err;
    campaign::CampaignOptions opt;
    opt.ckptDir = root + "/ckpts";
    const auto cli = campaign::runCampaign(spec, root + "/cli", opt);
    ASSERT_TRUE(cli.complete);
    EXPECT_EQ(cli.checkpointsRestored, 4u);
    const std::string want = campaign::campaignReport(root + "/cli").text;
    for (const char *id : {"alice/first", "alice/second"}) {
        std::string text;
        ASSERT_TRUE(client.report(id, 0.95, "", text, &err)) << err;
        EXPECT_EQ(text, want) << id;
    }

    // A lock file that cannot be opened: the next checkpointed
    // campaign fails with a message naming the library, while a
    // campaign without checkpoints completes beside it.
    std::filesystem::remove(root + "/ckpts/.lock");
    std::filesystem::create_directory(root + "/ckpts/.lock");
    serve::Submission blocked = makeSub("bob", "blocked", fields);
    ASSERT_TRUE(client.submit(blocked, &err)) << err;
    serve::Submission plain = makeSub("carol", "plain", smallFields());
    ASSERT_TRUE(client.submit(plain, &err)) << err;
    const serve::Event failed = finish(blocked.id());
    EXPECT_EQ(failed.kind, "failed");
    EXPECT_NE(failed.message.find(root + "/ckpts"), std::string::npos)
        << failed.message;
    EXPECT_EQ(finish(plain.id()).kind, "complete");

    ASSERT_TRUE(client.ping(&err)) << err;
    serve::CampaignInfo info;
    ASSERT_TRUE(client.info(blocked.id(), info, &err)) << err;
    EXPECT_EQ(info.state, "failed");
    ASSERT_TRUE(client.drain(&err)) << err;
    daemon.wait();
    daemon.shutdown();
}

TEST(ServeE2e, SoakManyClientsManyCampaigns)
{
    // Defaults sized for ctest; the sanitized runner sets
    // VARSIM_SOAK_CAMPAIGNS=200+ for the real soak.
    std::size_t total = 24;
    if (const char *env = std::getenv("VARSIM_SOAK_CAMPAIGNS"))
        total = std::strtoull(env, nullptr, 10);
    const std::size_t clients = 8;

    const std::string root = freshRoot("soak");
    serve::DaemonConfig cfg;
    cfg.root = root;
    cfg.addr = sockAddr(root);
    cfg.workers = 4;
    serve::Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;

    std::atomic<std::size_t> submitted{0};
    std::atomic<std::size_t> watched{0};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client(cfg.addr);
            for (std::size_t i = c; i < total; i += clients) {
                std::string terr;
                serve::Submission sub = makeSub(
                    "tenant" + std::to_string(i % 5),
                    "camp" + std::to_string(i),
                    smallFields(1000 + i, 2));
                if (!client.submit(sub, &terr)) {
                    ++failures;
                    continue;
                }
                ++submitted;
                // Every 3rd submitter stays attached to the
                // stream; the rest poll status like a dashboard.
                if (i % 3 == 0) {
                    bool sawComplete = false;
                    if (client.watch(
                            sub.id(), 0,
                            [&](const serve::Event &ev) {
                                sawComplete |=
                                    ev.kind == "complete";
                            },
                            &terr) &&
                        sawComplete)
                        ++watched;
                    else
                        ++failures;
                } else {
                    std::vector<serve::CampaignInfo> infos;
                    if (!client.status(sub.tenant, infos, &terr))
                        ++failures;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    serve::Client client(cfg.addr);
    ASSERT_TRUE(client.drain(&err)) << err;

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(submitted.load(), total);
    EXPECT_EQ(watched.load(), (total + 2) / 3);
    const auto infos = daemon.scheduler().status();
    ASSERT_EQ(infos.size(), total);
    for (const auto &info : infos)
        EXPECT_EQ(info.state, "complete") << info.id;
    EXPECT_EQ(daemon.scheduler().cellsExecuted(), total * 2u);

    daemon.wait();
    daemon.shutdown();
}

} // namespace
