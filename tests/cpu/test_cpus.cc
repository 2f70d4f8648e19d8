/**
 * @file
 * Tests of the two processor models against the real memory system,
 * using scripted op streams and a scripted host:
 *  - SimpleCpu is IPC 1 given warm L1s and stalls fully on misses;
 *  - OoOCpu overlaps independent misses (MLP) bounded by its ROB,
 *    the knob of the paper's Experiment 2;
 *  - fast mode (functional warming) completes misses as debt, does
 *    a Lock's RMW once, and trains the OoO predictors exactly as
 *    the detailed engine does, without its penalty.
 */

#include <gtest/gtest.h>

#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "mem/mem_system.hh"

namespace varsim
{
namespace cpu
{
namespace
{

/** A fixed op script. */
class ScriptStream : public OpStream
{
  public:
    explicit ScriptStream(std::vector<Op> ops) : ops_(std::move(ops))
    {}

    const Op &
    current() override
    {
        return ops_.at(pos);
    }

    void advance() override { ++pos; }

    void checkpoint(sim::CheckpointIo &cp) override { cp.field(pos); }

  private:
    std::vector<Op> ops_;
    std::size_t pos = 0;
};

class TestThread : public ThreadContext
{
  public:
    TestThread(std::vector<Op> ops, sim::Addr code_base)
        : stream_(std::move(ops))
    {
        fetch_.codeBase = code_base;
        fetch_.codeBlocks = 64;
    }

    OpStream &stream() override { return stream_; }
    FetchState &fetchState() override { return fetch_; }
    sim::ThreadId tid() const override { return 0; }

  private:
    ScriptStream stream_;
    FetchState fetch_;
};

/**
 * Host that advances TxnEnd/Yield/Lock/Unlock ops (every lock is
 * granted) and idles the CPU on End,
 * recording the tick of every syscall.
 */
class TestHost : public CpuHost
{
  public:
    explicit TestHost(sim::EventQueue &q) : eq(&q) {}

    void
    syscall(BaseCpu &cpu, ThreadContext &tc, const Op &op) override
    {
        syscalls.emplace_back(op.kind, eq->curTick());
        switch (op.kind) {
          case OpKind::TxnEnd:
          case OpKind::Yield:
          case OpKind::Lock:
          case OpKind::Unlock:
            tc.stream().advance();
            cpu.continueThread(0);
            return;
          case OpKind::End:
            cpu.setIdle();
            return;
          default:
            FAIL() << "unexpected syscall kind";
        }
    }

    void preempted(BaseCpu &cpu) override
    {
        ++preempts;
        cpu.continueThread(0);
    }

    void drained(BaseCpu &) override { ++drains; }
    bool draining() const override { return draining_; }

    /** Tick of the n-th syscall of `kind`, relative to `epoch`. */
    sim::Tick
    tickOf(OpKind kind, std::size_t occurrence = 0) const
    {
        std::size_t seen = 0;
        for (const auto &[k, t] : syscalls) {
            if (k == kind && seen++ == occurrence)
                return t - epoch;
        }
        return sim::maxTick;
    }

    sim::Tick epoch = 0;

    sim::EventQueue *eq;
    std::vector<std::pair<OpKind, sim::Tick>> syscalls;
    int preempts = 0;
    int drains = 0;
    bool draining_ = false;
};

mem::MemConfig
memCfg()
{
    mem::MemConfig c;
    c.numNodes = 2;
    c.l1Size = 8 * 1024;
    c.l2Size = 64 * 1024;
    c.perturbMaxNs = 0;
    return c;
}

class CpuTest : public ::testing::Test
{
  protected:
    void
    buildSimple()
    {
        ms = std::make_unique<mem::MemSystem>("mem", eq, memCfg());
        host = std::make_unique<TestHost>(eq);
        cfg = CpuConfig{};
        cpu0 = std::make_unique<SimpleCpu>("cpu0", eq, cfg,
                                           ms->icache(0),
                                           ms->dcache(0), 0);
        cpu0->setHost(host.get());
    }

    void
    buildOoO(std::uint32_t rob)
    {
        ms = std::make_unique<mem::MemSystem>("mem", eq, memCfg());
        host = std::make_unique<TestHost>(eq);
        cfg = CpuConfig{};
        cfg.model = CpuConfig::Model::OutOfOrder;
        cfg.robEntries = rob;
        cfg.issueIpc = 2;
        cpu0 = std::make_unique<OoOCpu>("cpu0", eq, cfg,
                                        ms->icache(0),
                                        ms->dcache(0), 0);
        cpu0->setHost(host.get());
    }

    /** Pre-fill the icache for the standard code footprint. */
    void
    warmCode(sim::Addr code_base)
    {
        struct Sink : mem::MemClient
        {
            void memResponse(std::uint64_t) override {}
        } sink;
        auto *old = &sink;
        (void)old;
        ms->icache(0).setClient(&sink);
        for (int b = 0; b < 64; ++b) {
            const sim::Addr a = code_base + b * 64;
            if (!ms->icache(0).tryAccess(a, false)) {
                ms->icache(0).access({a, false, true, 900u + b});
                eq.run();
            }
        }
        ms->icache(0).setClient(cpu0.get());
    }

    void
    warmData(sim::Addr addr, bool write = false)
    {
        struct Sink : mem::MemClient
        {
            void memResponse(std::uint64_t) override {}
        } sink;
        ms->dcache(0).setClient(&sink);
        if (!ms->dcache(0).tryAccess(addr, write)) {
            ms->dcache(0).access({addr, write, false, 999});
            eq.run();
        }
        ms->dcache(0).setClient(cpu0.get());
    }

    sim::EventQueue eq;
    CpuConfig cfg;
    std::unique_ptr<mem::MemSystem> ms;
    std::unique_ptr<TestHost> host;
    std::unique_ptr<BaseCpu> cpu0;
};

constexpr sim::Addr kCode = 0x100000;

TEST_F(CpuTest, SimpleComputeIsIpcOneWhenWarm)
{
    buildSimple();
    warmCode(kCode);
    TestThread t({{OpKind::Compute, 500, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::Compute, 300, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 1},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd, 0), 500u);
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd, 1), 800u);
    EXPECT_EQ(cpu0->stats().instructions, 800u);
}

TEST_F(CpuTest, SimpleColdFetchStalls)
{
    buildSimple();
    TestThread t({{OpKind::Compute, 32, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    // 32 instructions = 2 code blocks, each a 192-tick cold miss.
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd), 32u + 2 * 192u);
}

TEST_F(CpuTest, SimpleLoadHitCostsOneCycle)
{
    buildSimple();
    warmCode(kCode);
    warmData(0x9000);
    TestThread t({{OpKind::Load, 0, 0x9000, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd), 1u);
}

TEST_F(CpuTest, SimpleLoadMissStallsFully)
{
    buildSimple();
    warmCode(kCode);
    TestThread t({{OpKind::Load, 0, 0x9000, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    // 1 instruction + 192 cold miss.
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd), 193u);
}

TEST_F(CpuTest, SimpleTwoMissesSerialize)
{
    buildSimple();
    warmCode(kCode);
    TestThread t({{OpKind::Load, 0, 0x9000, 0},
                  {OpKind::Load, 0, 0xa000, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd), 2u * 193u);
}

TEST_F(CpuTest, SimplePreemptHonoredAtOpBoundary)
{
    buildSimple();
    warmCode(kCode);
    TestThread t({{OpKind::Compute, 100, 0, 0},
                  {OpKind::Compute, 100, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    cpu0->requestPreempt();
    eq.run();
    EXPECT_EQ(host->preempts, 1);
    EXPECT_EQ(host->tickOf(OpKind::End), 200u);
}

TEST_F(CpuTest, SimpleDrainParksAtOpBoundary)
{
    buildSimple();
    warmCode(kCode);
    TestThread t({{OpKind::Compute, 100, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    host->draining_ = true;
    eq.run();
    EXPECT_EQ(host->drains, 1);
    EXPECT_EQ(host->syscalls.size(), 0u) << "parked before TxnEnd";
    host->draining_ = false;
    cpu0->resumeFromDrain();
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::End), 100u);
}

TEST_F(CpuTest, OoOOverlapsIndependentMisses)
{
    buildOoO(64);
    warmCode(kCode);
    TestThread t({{OpKind::Load, 0, 0x9000, 0},
                  {OpKind::Load, 0, 0xa000, 0},
                  {OpKind::Load, 0, 0xb000, 0},
                  {OpKind::Load, 0, 0xc000, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    const sim::Tick t1 = host->tickOf(OpKind::TxnEnd);
    // Four independent misses overlap: far less than 4 x 192.
    EXPECT_LT(t1, 300u);
    EXPECT_GE(t1, 192u);
}

TEST_F(CpuTest, OoORobBoundsOverlap)
{
    // With a huge spacer between loads relative to the ROB, the
    // second load cannot enter the window until the first retires.
    auto timeWithRob = [](std::uint32_t rob) {
        sim::EventQueue eq;
        auto ms = std::make_unique<mem::MemSystem>("mem", eq,
                                                   memCfg());
        TestHost host(eq);
        CpuConfig cfg;
        cfg.model = CpuConfig::Model::OutOfOrder;
        cfg.robEntries = rob;
        OoOCpu cpu0("cpu0", eq, cfg, ms->icache(0), ms->dcache(0),
                    0);
        cpu0.setHost(&host);
        // Warm the code footprint.
        struct Sink : mem::MemClient
        {
            void memResponse(std::uint64_t) override {}
        } sink;
        ms->icache(0).setClient(&sink);
        for (int b = 0; b < 64; ++b) {
            const sim::Addr a = kCode + b * 64;
            if (!ms->icache(0).tryAccess(a, false)) {
                ms->icache(0).access({a, false, true, 900u + b});
                eq.run();
            }
        }
        ms->icache(0).setClient(&cpu0);
        std::vector<Op> ops;
        ops.push_back({OpKind::Load, 0, 0x9000, 0});
        ops.push_back({OpKind::Compute, 100, 0, 0});
        ops.push_back({OpKind::Load, 0, 0xa000, 0});
        ops.push_back({OpKind::TxnEnd, 0, 0, 0});
        ops.push_back({OpKind::End, 0, 0, 0});
        TestThread t(ops, kCode);
        host.epoch = eq.curTick();
        cpu0.runThread(&t, 0);
        eq.run();
        return host.tickOf(OpKind::TxnEnd);
    };
    const sim::Tick small = timeWithRob(16);
    const sim::Tick large = timeWithRob(256);
    // ROB 16 serializes (the 100-instruction spacer exceeds the
    // window); ROB 256 overlaps the two misses.
    EXPECT_GT(small, large + 100);
}

TEST_F(CpuTest, OoOComputeUsesIssueIpc)
{
    buildOoO(64);
    warmCode(kCode);
    TestThread t({{OpKind::Compute, 1000, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd), 500u); // IPC 2
}

TEST_F(CpuTest, OoOMispredictChargesPenalty)
{
    buildOoO(64);
    warmCode(kCode);
    // Unpredictable-by-construction pattern: the predictor cannot be
    // right every time; each Branch costs a dispatch slot plus
    // penalty on error.
    std::vector<Op> ops;
    for (int i = 0; i < 64; ++i) {
        ops.push_back({OpKind::Branch, 0, kCode + 0x40,
                       (i * 7 + i * i) % 3 == 0});
    }
    ops.push_back({OpKind::TxnEnd, 0, 0, 0});
    ops.push_back({OpKind::End, 0, 0, 0});
    TestThread t(ops, kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_GT(cpu0->stats().mispredicts, 0u);
    EXPECT_EQ(cpu0->stats().branches, 64u);
    EXPECT_GE(host->tickOf(OpKind::TxnEnd),
              cpu0->stats().mispredicts * cfg.mispredictPenalty);
}

TEST_F(CpuTest, OoORasPredictsMatchedCalls)
{
    buildOoO(64);
    warmCode(kCode);
    std::vector<Op> ops;
    for (int i = 0; i < 16; ++i) {
        ops.push_back({OpKind::Call, 0x5000u + i, 0, 0});
        ops.push_back({OpKind::Return, 0x5000u + i, 0, 0});
    }
    ops.push_back({OpKind::TxnEnd, 0, 0, 0});
    ops.push_back({OpKind::End, 0, 0, 0});
    TestThread t(ops, kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(cpu0->stats().mispredicts, 0u)
        << "balanced call/return must be perfectly predicted";
}

TEST_F(CpuTest, OoODrainWaitsForOutstandingMisses)
{
    buildOoO(64);
    warmCode(kCode);
    TestThread t({{OpKind::Load, 0, 0x9000, 0},
                  {OpKind::Compute, 10, 0, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    host->draining_ = true;
    eq.run();
    EXPECT_EQ(host->drains, 1);
    EXPECT_EQ(ms->pendingTransactions(), 0u)
        << "drain must complete outstanding misses";
}

/** The fixed charge of a warm access that misses to DRAM. */
sim::Tick
coldWarmLatency()
{
    const mem::MemConfig c = memCfg();
    return c.l2HitLatency + c.netTraversal + c.dramLatency +
           c.netTraversal;
}

TEST_F(CpuTest, FastLoadMissIsDebtNotAnEvent)
{
    buildSimple();
    warmCode(kCode);
    cpu0->setFastMode(true);
    TestThread t({{OpKind::Load, 0, 0x9000, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    const std::uint64_t before = eq.numDispatched();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::TxnEnd), 1u + coldWarmLatency());
    EXPECT_EQ(ms->dcache(0).misses(), 1u);
    // The dispatch kick, the debt paid before the TxnEnd trap and
    // the continue after it: no memory event, no response.
    EXPECT_EQ(eq.numDispatched() - before, 3u);
}

TEST_F(CpuTest, FastLockAccessesItsWordOnce)
{
    buildSimple();
    warmCode(kCode);
    cpu0->setFastMode(true);
    // The cold lock word makes the Lock owe a debt, paid before its
    // trap; the re-entry after that payment must not repeat the RMW.
    TestThread t({{OpKind::Lock, 0, 0x9000, 0},
                  {OpKind::TxnEnd, 0, 0, 0},
                  {OpKind::End, 0, 0, 0}},
                 kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(host->tickOf(OpKind::Lock), 1u + coldWarmLatency());
    EXPECT_EQ(ms->dcache(0).misses(), 1u);
    EXPECT_EQ(ms->dcache(0).hits(), 0u) << "the RMW was repeated";
    EXPECT_EQ(cpu0->stats().memOps, 1u);
}

/** What retiring a control-op script left behind. */
struct ControlRetire
{
    CpuStats stats;
    std::uint64_t lookups = 0;
    std::uint64_t correct = 0;
    sim::Tick txnEnd = 0;
};

ControlRetire
retireOnOoO(const std::vector<Op> &ops, bool fast)
{
    sim::EventQueue eq;
    mem::MemSystem ms("mem", eq, memCfg());
    TestHost host(eq);
    CpuConfig cfg;
    cfg.model = CpuConfig::Model::OutOfOrder;
    OoOCpu cpu("cpu0", eq, cfg, ms.icache(0), ms.dcache(0), 0);
    cpu.setHost(&host);
    for (sim::Addr b = 0; b < 64; ++b)
        ms.icache(0).warmAccess(kCode + b * 64, false);
    cpu.setFastMode(fast);
    TestThread t(ops, kCode);
    cpu.runThread(&t, 0);
    eq.run();
    return {cpu.stats(), cpu.directionPredictor().lookups(),
            cpu.directionPredictor().correct(),
            host.tickOf(OpKind::TxnEnd)};
}

TEST_F(CpuTest, OoOWarmingTrainsPredictorsLikeDetail)
{
    std::vector<Op> ops;
    for (int i = 0; i < 96; ++i) {
        ops.push_back({OpKind::Branch, 0, kCode + 0x40 * (i % 3),
                       (i * 7 + i * i) % 3 == 0});
        if (i % 4 == 0)
            ops.push_back({OpKind::Call, 0x5000u + i, 0, 0});
        if (i % 4 == 2) // every other return goes elsewhere
            ops.push_back({OpKind::Return,
                           0x5000u + i - 2 + (i % 8 == 2), 0, 0});
        if (i % 5 == 0)
            ops.push_back({OpKind::IndirectBranch,
                           0x6000u + 0x40 * (i % 15 / 5), kCode + 0x40,
                           0});
    }
    const std::uint64_t instrs = ops.size();
    ops.push_back({OpKind::TxnEnd, 0, 0, 0});
    ops.push_back({OpKind::End, 0, 0, 0});

    const ControlRetire detail = retireOnOoO(ops, false);
    const ControlRetire warm = retireOnOoO(ops, true);
    EXPECT_GT(detail.stats.mispredicts, 0u);
    EXPECT_GT(detail.lookups, detail.correct);
    EXPECT_EQ(warm.stats.branches, detail.stats.branches);
    EXPECT_EQ(warm.stats.mispredicts, detail.stats.mispredicts);
    EXPECT_EQ(warm.lookups, detail.lookups);
    EXPECT_EQ(warm.correct, detail.correct);
    // Warming charges one cycle per instruction and no penalty.
    EXPECT_EQ(warm.txnEnd, instrs);
    EXPECT_GE(detail.txnEnd,
              detail.stats.mispredicts * CpuConfig{}.mispredictPenalty);
}

TEST_F(CpuTest, StatsCountContextSwitches)
{
    buildSimple();
    warmCode(kCode);
    TestThread t({{OpKind::End, 0, 0, 0}}, kCode);
    host->epoch = eq.curTick();
    cpu0->runThread(&t, 0);
    eq.run();
    EXPECT_EQ(cpu0->stats().contextSwitches, 1u);
    EXPECT_TRUE(cpu0->isIdle());
}

} // namespace
} // namespace cpu
} // namespace varsim
