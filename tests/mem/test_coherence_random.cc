/**
 * @file
 * Directed random stress tester for the MOSI snooping protocol, in
 * the spirit of gem5's Ruby Random Tester: thousands of randomized
 * loads and stores from every node against a small, conflict-heavy
 * address space, with the protocol's global invariants checked
 * against a golden reference model after every quiesce point.
 *
 * Invariants checked:
 *  I1  at most one node holds a block in an owner state (M/O);
 *  I2  if any node holds M, no other node holds any valid copy;
 *  I3  every issued access eventually receives exactly one response;
 *  I4  only nodes that have actually written a block may hold it in
 *      M (write permission is granted exclusively through GetM);
 *  I5  the memory system drains to zero pending transactions.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "mem/mem_system.hh"
#include "sim/random.hh"

namespace varsim
{
namespace mem
{
namespace
{

class Collector : public MemClient
{
  public:
    void
    memResponse(std::uint64_t tag) override
    {
        ++responses[tag];
    }

    std::map<std::uint64_t, int> responses;
};

MemConfig
testerConfig(std::size_t nodes, CoherenceProtocol protocol)
{
    MemConfig cfg;
    cfg.protocol = protocol;
    cfg.numNodes = nodes;
    cfg.l1Size = 512;  // tiny: constant evictions
    cfg.l1Assoc = 1;
    cfg.l2Size = 2048; // 32 blocks: heavy conflict pressure
    cfg.l2Assoc = 2;
    cfg.perturbMaxNs = 4;
    return cfg;
}

/**
 * 24 hot blocks: 6 set positions x 4 aliases (the L2 way span is
 * 1024B), so set pressure forces dirty evictions.
 */
std::vector<sim::Addr>
testerHotBlocks()
{
    std::vector<sim::Addr> blocks;
    for (int i = 0; i < 24; ++i)
        blocks.push_back(0x10000 + (i % 6) * 64 + (i / 6) * 1024);
    return blocks;
}

struct RandomTester
{
    explicit RandomTester(std::uint64_t seed, std::size_t nodes = 4,
                          CoherenceProtocol protocol =
                              CoherenceProtocol::Snooping)
        : rng(seed), hotBlocks(testerHotBlocks())
    {
        ms = std::make_unique<MemSystem>("mem", eq,
                                         testerConfig(nodes, protocol));
        ms->seedPerturbation(seed ^ 0x5a5a);
        for (std::size_t n = 0; n < nodes; ++n) {
            clients.push_back(std::make_unique<Collector>());
            ms->icache(n).setClient(clients.back().get());
            ms->dcache(n).setClient(clients.back().get());
        }
    }

    /** Issue one random access; track expectations. */
    void
    step()
    {
        const std::size_t node =
            rng.uniformInt(0, clients.size() - 1);
        const sim::Addr addr = hotBlocks[static_cast<std::size_t>(
            rng.uniformInt(0, hotBlocks.size() - 1))];
        const bool write = rng.bernoulli(0.45);
        if (ms->dcache(node).tryAccess(addr, write)) {
            if (write)
                writers[addr].insert(static_cast<int>(node));
            return; // hits complete synchronously
        }
        const std::uint64_t tag = nextTag++;
        expected[tag] = static_cast<int>(node);
        ms->dcache(node).access({addr, write, false, tag});
        if (write)
            writers[addr].insert(static_cast<int>(node));
        // Randomly interleave: sometimes let time pass, sometimes
        // pile up concurrent transactions.
        if (rng.bernoulli(0.5))
            eq.run(eq.curTick() + rng.uniformInt(1, 300));
    }

    /** Drain and check all invariants. */
    void
    checkInvariants()
    {
        eq.run(); // quiesce
        ASSERT_EQ(ms->pendingTransactions(), 0u) << "I5";

        // I3: every expected response arrived exactly once.
        for (const auto &[tag, node] : expected) {
            const auto &resp =
                clients[static_cast<std::size_t>(node)]->responses;
            auto it = resp.find(tag);
            ASSERT_NE(it, resp.end())
                << "I3: tag " << tag << " never answered";
            EXPECT_EQ(it->second, 1)
                << "I3: tag " << tag << " answered twice";
        }

        // I1/I2/I4 per block.
        for (std::size_t b = 0; b < hotBlocks.size(); ++b) {
            const sim::Addr addr = hotBlocks[b];
            int owners = 0, modified = -1, ownerNode = -1;
            int validCopies = 0;
            for (std::size_t n = 0; n < clients.size(); ++n) {
                const LineState s = ms->l2(n).snoopState(addr);
                if (isValidState(s))
                    ++validCopies;
                if (isOwnerState(s)) {
                    ++owners;
                    ownerNode = static_cast<int>(n);
                }
                if (s == LineState::Modified)
                    modified = static_cast<int>(n);
            }
            EXPECT_LE(owners, 1) << "I1: block " << b;
            if (modified >= 0) {
                EXPECT_EQ(validCopies, 1)
                    << "I2: M with sharers, block " << b;
            }
            // I4: M can only be held by a node that wrote.
            if (modified >= 0) {
                EXPECT_TRUE(writers[addr].count(modified) > 0)
                    << "I4: block " << b << " M at non-writer node";
            }
            (void)ownerNode;
        }
    }

    sim::EventQueue eq;
    sim::Random rng;
    std::unique_ptr<MemSystem> ms;
    std::vector<std::unique_ptr<Collector>> clients;
    std::map<std::uint64_t, int> expected;
    std::map<sim::Addr, std::set<int>> writers;
    std::vector<sim::Addr> hotBlocks;
    std::uint64_t nextTag = 1;
};

class CoherenceRandomTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, CoherenceProtocol>>
{};

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProtocols, CoherenceRandomTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
        ::testing::Values(CoherenceProtocol::Snooping,
                          CoherenceProtocol::Directory)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::uint64_t, CoherenceProtocol>> &info) {
        return sim::format(
            "seed%llu_%s",
            static_cast<unsigned long long>(
                std::get<0>(info.param)),
            std::get<1>(info.param) ==
                    CoherenceProtocol::Snooping
                ? "snoop"
                : "dir");
    });

TEST_P(CoherenceRandomTest, InvariantsHoldUnderRandomTraffic)
{
    RandomTester t(std::get<0>(GetParam()), 4,
                   std::get<1>(GetParam()));
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 50; ++i)
            t.step();
        t.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Protocol actually got exercised: races produce NACKs and
    // conflict pressure produces writebacks.
    const MemStats s = t.ms->totalStats();
    EXPECT_GT(s.nacks + s.upgrades, 0u);
    EXPECT_GT(s.writebacks, 0u);
    EXPECT_GT(s.cacheToCache, 0u);
}

/** A cache's serialized bytes (tag array, then its counters). */
std::vector<std::uint8_t>
imageOf(const sim::Serializable &cache)
{
    sim::CheckpointOut cp;
    cache.serialize(cp);
    return cp.bytes();
}

/**
 * The state a timed system reached must be the state functional
 * warming reached over the same accesses. Counters differ only where
 * the paths differ on purpose: a timed fill re-runs its waiter
 * through the L2 (one more L2 hit per miss), and a timed PutM is
 * ordered (one more fabric transaction per writeback).
 */
void
expectWarmStateMatchesTimed(MemSystem &timed, MemSystem &warm,
                            const std::vector<sim::Addr> &hot)
{
    // An L2 image ends with its five counters, 8 bytes plus a
    // one-byte tag each; the tag array comes before them.
    constexpr std::size_t counterBytes = 5 * (1 + 8);
    for (std::size_t n = 0; n < timed.config().numNodes; ++n) {
        SCOPED_TRACE(sim::format("node %zu", n));
        EXPECT_EQ(imageOf(timed.icache(n)), imageOf(warm.icache(n)));
        EXPECT_EQ(imageOf(timed.dcache(n)), imageOf(warm.dcache(n)));
        std::vector<std::uint8_t> t = imageOf(timed.l2(n));
        std::vector<std::uint8_t> w = imageOf(warm.l2(n));
        ASSERT_GE(t.size(), counterBytes);
        ASSERT_EQ(t.size(), w.size());
        t.resize(t.size() - counterBytes);
        w.resize(w.size() - counterBytes);
        EXPECT_EQ(t, w) << "L2 tag array";
        EXPECT_EQ(timed.l2(n).misses(), warm.l2(n).misses());
        EXPECT_EQ(timed.l2(n).writebacks(), warm.l2(n).writebacks());
        EXPECT_EQ(timed.l2(n).hits(),
                  warm.l2(n).hits() + warm.l2(n).misses());
        EXPECT_EQ(timed.l2(n).retries(), 0u);
        EXPECT_EQ(warm.l2(n).retries(), 0u);
    }
    if (timed.config().protocol == CoherenceProtocol::Directory) {
        for (const sim::Addr b : hot) {
            EXPECT_EQ(timed.directory().ownerOf(b),
                      warm.directory().ownerOf(b));
            EXPECT_EQ(timed.directory().sharersOf(b),
                      warm.directory().sharersOf(b));
        }
    }
    const MemStats &ts = timed.fabric().stats();
    const MemStats &ws = warm.fabric().stats();
    EXPECT_EQ(ts.l2Misses, ws.l2Misses);
    EXPECT_EQ(ts.cacheToCache, ws.cacheToCache);
    EXPECT_EQ(ts.memoryFetches, ws.memoryFetches);
    EXPECT_EQ(ts.upgrades, ws.upgrades);
    EXPECT_EQ(ts.writebacks, ws.writebacks);
    EXPECT_EQ(ts.busTransactions, ws.busTransactions + ws.writebacks);
}

TEST_P(CoherenceRandomTest, WarmingLeavesTheTimedProtocolState)
{
    const auto [seed, protocol] = GetParam();
    const std::vector<sim::Addr> hot = testerHotBlocks();
    for (const std::size_t nodes : {2, 4, 16}) {
        SCOPED_TRACE(sim::format("%zu nodes", nodes));
        const MemConfig cfg = testerConfig(nodes, protocol);
        sim::EventQueue timedEq;
        sim::EventQueue warmEq;
        MemSystem timed("mem", timedEq, cfg);
        MemSystem warm("mem", warmEq, cfg);
        timed.seedPerturbation(seed ^ 0x5a5a);
        Collector sink;
        for (std::size_t n = 0; n < nodes; ++n) {
            timed.icache(n).setClient(&sink);
            timed.dcache(n).setClient(&sink);
        }
        sim::Random rng(seed);
        for (std::uint64_t tag = 1; tag <= 3000; ++tag) {
            const std::size_t node = rng.uniformInt(0, nodes - 1);
            const sim::Addr addr = hot[static_cast<std::size_t>(
                rng.uniformInt(0, hot.size() - 1))];
            const bool ifetch = rng.bernoulli(0.1);
            const bool write = !ifetch && rng.bernoulli(0.45);
            // Each timed access runs to completion before the next,
            // so both systems see one order of requests.
            L1Cache &l1 =
                ifetch ? timed.icache(node) : timed.dcache(node);
            if (!l1.tryAccess(addr, write)) {
                l1.access({addr, write, ifetch, tag});
                timedEq.run();
            }
            (ifetch ? warm.icache(node) : warm.dcache(node))
                .warmAccess(addr, write);
            expectWarmStateMatchesTimed(timed, warm, hot);
            if (HasFailure()) {
                ADD_FAILURE() << "first difference after access "
                              << tag;
                return;
            }
        }
        EXPECT_EQ(sink.responses.size(),
                  timed.totalStats().l1Misses);
        EXPECT_GT(warm.fabric().stats().writebacks, 0u);
        EXPECT_GT(warm.fabric().stats().cacheToCache, 0u);
    }
}

TEST(CoherenceRandomTest16, ScalesToSixteenNodes)
{
    RandomTester t(99, 16);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 100; ++i)
            t.step();
        t.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace mem
} // namespace varsim
