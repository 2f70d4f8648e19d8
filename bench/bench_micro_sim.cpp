/**
 * @file
 * Microbenchmarks of the simulator's hot paths (google-benchmark):
 * the event queue, the RNG, tag-array probes, coherence
 * transactions, the statistics kernels, and end-to-end simulated
 * transaction throughput. These quantify the simulator's own cost —
 * the paper's motivation for a multiple-short-runs methodology is
 * that simulation is ~24,000x slower than the target (Section 1),
 * so per-event costs decide what experiments are feasible.
 */

#include <benchmark/benchmark.h>

#include "core/varsim.hh"
#include "cpu/simple_cpu.hh"

using namespace varsim;

namespace
{

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    sim::EventQueue eq;
    class Nop : public sim::Event
    {
      public:
        void process() override {}
    };
    std::vector<Nop> events(64);
    std::uint64_t t = 0;
    for (auto _ : state) {
        for (auto &ev : events)
            eq.schedule(&ev, t + 1 + (&ev - events.data()) % 16);
        while (!eq.empty())
            eq.step();
        t = eq.curTick();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void
BM_EventQueueMixedHorizon(benchmark::State &state)
{
    // The mix a 16-CPU run dispatches: ~40 events pending, ~1% of
    // schedules 256 or more ticks ahead (the far heap), and far
    // timers rescheduled before they fire, like the kernel's quantum.
    sim::EventQueue eq;
    std::vector<sim::Tick> deltas(4096);
    sim::SplitMix64 rng(1);
    for (auto &d : deltas)
        d = rng.next() % 200 == 0 ? 256 + rng.next() % 20'000
                                  : 1 + rng.next() % 128;
    std::size_t next = 0;
    class Hop : public sim::Event
    {
      public:
        Hop(sim::EventQueue &q, const std::vector<sim::Tick> &d,
            std::size_t &i)
            : q_(q), d_(d), i_(i)
        {}
        void
        process() override
        {
            q_.schedule(this, q_.curTick() + d_[i_++ % d_.size()]);
        }

      private:
        sim::EventQueue &q_;
        const std::vector<sim::Tick> &d_;
        std::size_t &i_;
    };
    class Nop : public sim::Event
    {
      public:
        void process() override {}
    };
    std::vector<std::unique_ptr<Hop>> hops;
    for (int i = 0; i < 32; ++i) {
        hops.push_back(std::make_unique<Hop>(eq, deltas, next));
        eq.schedule(hops.back().get(), 1 + i);
    }
    std::vector<Nop> timers(8);
    std::size_t timer = 0;
    for (auto _ : state) {
        for (int k = 0; k < 200; ++k)
            eq.step();
        eq.reschedule(&timers[timer++ % timers.size()],
                      eq.curTick() + 20'000);
        benchmark::DoNotOptimize(eq.curTick());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void
BM_RandomNext(benchmark::State &state)
{
    sim::Random rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.next();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomNext);

void
BM_RandomUniformInt(benchmark::State &state)
{
    sim::Random rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.uniformInt(0, 4);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomUniformInt);

void
BM_ZipfSample(benchmark::State &state)
{
    sim::Random rng(1);
    sim::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)),
                          1.0);
    std::size_t sink = 0;
    for (auto _ : state)
        sink += zipf.sample(rng);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536);

void
BM_CacheArrayHit(benchmark::State &state)
{
    mem::CacheArray array(4 * 1024 * 1024, 4, 64);
    mem::Victim victim;
    for (sim::Addr a = 0; a < 256 * 64; a += 64) {
        auto [line, _] = array.allocate(a, victim);
        line->state = mem::LineState::Shared;
    }
    sim::Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.findAndTouch(a));
        a = (a + 64) % (256 * 64);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayHit);

void
BM_CacheArrayHitEveryWay(benchmark::State &state)
{
    // Hits that cycle through all four ways of one set: each one
    // lands on the set's LRU line, so every hit re-ranks the set
    // (BM_CacheArrayHit mostly hits a set's only line).
    mem::CacheArray array(4 * 1024 * 1024, 4, 64);
    mem::Victim victim;
    const sim::Addr stride = array.numSets() * 64;
    for (sim::Addr w = 0; w < 4; ++w) {
        auto [line, _] = array.allocate(w * stride, victim);
        line->state = mem::LineState::Shared;
    }
    sim::Addr w = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.findAndTouch(w * stride));
        w = (w + 1) & 3;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayHitEveryWay);

void
BM_CoherenceTransaction(benchmark::State &state)
{
    // One full L2-miss round trip (request, snoop, fill) through
    // the 16-node memory system.
    sim::EventQueue eq;
    mem::MemConfig cfg;
    mem::MemSystem ms("mem", eq, cfg);
    struct Sink : mem::MemClient
    {
        void memResponse(std::uint64_t) override {}
    } sink;
    ms.dcache(0).setClient(&sink);
    sim::Addr a = 0x1000'0000;
    std::uint64_t tag = 0;
    for (auto _ : state) {
        ms.dcache(0).access({a, false, false, ++tag});
        eq.run();
        a += 64; // always a fresh block: every access is a miss
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoherenceTransaction);

void
BM_StudentTQuantile(benchmark::State &state)
{
    double p = 0.90;
    double sink = 0.0;
    for (auto _ : state) {
        sink += stats::studentTQuantile(p, 19.0);
        p = p > 0.99 ? 0.90 : p + 0.0001;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StudentTQuantile);

void
BM_OneWayAnova(benchmark::State &state)
{
    std::vector<std::vector<double>> groups(8);
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (int i = 0; i < 20; ++i)
            groups[g].push_back(double(g) + 0.1 * i);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::oneWayAnova(groups));
}
BENCHMARK(BM_OneWayAnova);

void
BM_OltpTransactionThroughput(benchmark::State &state)
{
    // End-to-end simulated OLTP transactions per host-second on the
    // 16-CPU paper target.
    core::SystemConfig sys;
    workload::WorkloadParams wl;
    core::Simulation simn(sys, wl);
    simn.seedPerturbation(1);
    simn.runTransactions(50); // boot + warm
    for (auto _ : state)
        simn.runTransactions(10);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_OltpTransactionThroughput)
    ->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    // Op-stream generation cost alone (no timing simulation).
    sim::EventQueue eq;
    mem::MemConfig mcfg;
    mem::MemSystem ms("mem", eq, mcfg);
    cpu::CpuConfig ccfg;
    std::vector<std::unique_ptr<cpu::BaseCpu>> cpus;
    std::vector<cpu::BaseCpu *> ptrs;
    for (int i = 0; i < 16; ++i) {
        cpus.push_back(std::make_unique<cpu::SimpleCpu>(
            sim::format("cpu%d", i), eq, ccfg, ms.icache(i),
            ms.dcache(i), i));
        ptrs.push_back(cpus.back().get());
    }
    os::OsConfig oscfg;
    os::Kernel kernel("kernel", eq, oscfg, ptrs);
    workload::WorkloadParams params;
    auto wl = workload::Workload::build(params, kernel, 16, 64);
    cpu::OpStream &s = kernel.thread(0).stream();
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            benchmark::DoNotOptimize(s.current());
            s.advance();
            ++ops;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_WorkloadGeneration);

} // anonymous namespace

BENCHMARK_MAIN();
