/**
 * @file
 * Property tests over all seven workload models: stream determinism
 * (the cornerstone of the paper's methodology — op streams must be
 * pure functions of the workload seed), structural well-formedness
 * (balanced lock/unlock nesting, transaction boundaries, valid
 * addresses), serialization, and the per-kind signatures (barrier
 * phasing for the scientific codes, GC sawtooth for SPECjbb, ...).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cpu/simple_cpu.hh"
#include "mem/mem_system.hh"
#include "workload/builders.hh"
#include "workload/workload.hh"

namespace varsim
{
namespace workload
{
namespace
{

using cpu::Op;
using cpu::OpKind;

/** A complete small system to host a workload build. */
struct Host
{
    explicit Host(WorkloadKind kind, std::uint64_t seed = 12345,
                  std::size_t num_cpus = 4)
    {
        mem::MemConfig mcfg;
        mcfg.numNodes = num_cpus;
        mcfg.l1Size = 8 * 1024;
        mcfg.l2Size = 64 * 1024;
        ms = std::make_unique<mem::MemSystem>("mem", eq, mcfg);
        std::vector<cpu::BaseCpu *> ptrs;
        for (std::size_t i = 0; i < num_cpus; ++i) {
            cpus.push_back(std::make_unique<cpu::SimpleCpu>(
                sim::format("cpu%zu", i), eq, ccfg, ms->icache(i),
                ms->dcache(i), static_cast<sim::CpuId>(i)));
            ptrs.push_back(cpus.back().get());
        }
        kernel =
            std::make_unique<os::Kernel>("kernel", eq, oscfg, ptrs);
        WorkloadParams params;
        params.kind = kind;
        params.seed = seed;
        wl = Workload::build(params, *kernel, num_cpus, 64);
    }

    sim::EventQueue eq;
    cpu::CpuConfig ccfg;
    os::OsConfig oscfg;
    std::unique_ptr<mem::MemSystem> ms;
    std::vector<std::unique_ptr<cpu::BaseCpu>> cpus;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<Workload> wl;
};

/** Pull up to @p n ops from a thread's stream (stops at End). */
std::vector<Op>
pullOps(os::Kernel &k, sim::ThreadId tid, std::size_t n)
{
    std::vector<Op> out;
    cpu::OpStream &s = k.thread(tid).stream();
    for (std::size_t i = 0; i < n; ++i) {
        const Op op = s.current();
        out.push_back(op);
        if (op.kind == OpKind::End)
            break;
        s.advance();
    }
    return out;
}

const WorkloadKind allKinds[] = {
    WorkloadKind::Oltp,      WorkloadKind::Apache,
    WorkloadKind::SpecJbb,   WorkloadKind::Slashcode,
    WorkloadKind::EcPerf,    WorkloadKind::Barnes,
    WorkloadKind::Ocean,
};

class AllWorkloads
    : public ::testing::TestWithParam<WorkloadKind>
{};

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllWorkloads, ::testing::ValuesIn(allKinds),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        return kindName(info.param);
    });

TEST_P(AllWorkloads, StreamsAreDeterministicPerSeed)
{
    Host a(GetParam(), 42);
    Host b(GetParam(), 42);
    ASSERT_EQ(a.wl->numThreads(), b.wl->numThreads());
    for (sim::ThreadId tid = 0;
         tid < static_cast<sim::ThreadId>(a.wl->numThreads());
         ++tid) {
        const auto oa = pullOps(*a.kernel, tid, 2000);
        const auto ob = pullOps(*b.kernel, tid, 2000);
        ASSERT_EQ(oa.size(), ob.size());
        for (std::size_t i = 0; i < oa.size(); ++i) {
            EXPECT_EQ(oa[i].kind, ob[i].kind);
            EXPECT_EQ(oa[i].addr, ob[i].addr);
            EXPECT_EQ(oa[i].count, ob[i].count);
            EXPECT_EQ(oa[i].id, ob[i].id);
        }
    }
}

TEST_P(AllWorkloads, DifferentSeedsGiveDifferentStreams)
{
    if (GetParam() == WorkloadKind::Ocean) {
        // Ocean is fully deterministic (stencil), seed-independent
        // by design.
        GTEST_SKIP();
    }
    Host a(GetParam(), 1);
    Host b(GetParam(), 2);
    const auto oa = pullOps(*a.kernel, 0, 2000);
    const auto ob = pullOps(*b.kernel, 0, 2000);
    bool differ = oa.size() != ob.size();
    for (std::size_t i = 0; !differ && i < oa.size(); ++i) {
        differ = oa[i].kind != ob[i].kind ||
                 oa[i].addr != ob[i].addr ||
                 oa[i].count != ob[i].count;
    }
    EXPECT_TRUE(differ);
}

TEST_P(AllWorkloads, LockNestingIsBalanced)
{
    Host h(GetParam());
    const auto ops = pullOps(*h.kernel, 0, 20000);
    std::map<int, int> depth;
    for (const Op &op : ops) {
        if (op.kind == OpKind::Lock) {
            ++depth[op.id];
            EXPECT_EQ(depth[op.id], 1)
                << "recursive lock of mutex " << op.id;
        } else if (op.kind == OpKind::Unlock) {
            --depth[op.id];
            EXPECT_GE(depth[op.id], 0)
                << "unlock without lock of mutex " << op.id;
        } else if (op.kind == OpKind::TxnEnd) {
            for (const auto &[id, d] : depth)
                EXPECT_EQ(d, 0) << "mutex " << id
                                << " held across a txn boundary";
        }
    }
}

TEST_P(AllWorkloads, MemoryOpsHaveValidAddresses)
{
    Host h(GetParam());
    const auto ops = pullOps(*h.kernel, 1, 10000);
    for (const Op &op : ops) {
        if (op.kind == OpKind::Load || op.kind == OpKind::Store ||
            op.kind == OpKind::Lock || op.kind == OpKind::Unlock) {
            EXPECT_GE(op.addr, 0x1000'0000u)
                << "address below the workload address space";
        }
    }
}

TEST_P(AllWorkloads, EmitsTransactions)
{
    Host h(GetParam());
    // The scientific codes emit a single TxnEnd at the very end of
    // their (finite) stream; pull enough to reach it.
    const bool scientific = GetParam() == WorkloadKind::Barnes ||
                            GetParam() == WorkloadKind::Ocean;
    const auto ops =
        pullOps(*h.kernel, 0, scientific ? 5'000'000 : 50000);
    int txns = 0;
    for (const Op &op : ops)
        txns += op.kind == OpKind::TxnEnd;
    EXPECT_GE(txns, 1);
}

TEST_P(AllWorkloads, ComputeOpsAreReasonablySized)
{
    Host h(GetParam());
    const auto ops = pullOps(*h.kernel, 0, 10000);
    for (const Op &op : ops) {
        if (op.kind == OpKind::Compute) {
            EXPECT_GT(op.count, 0u);
            EXPECT_LT(op.count, 100'000u)
                << "compute segment too large for preemption "
                   "granularity";
        }
    }
}

TEST_P(AllWorkloads, ProgramSerializationRoundTrips)
{
    Host a(GetParam(), 7);
    // Advance thread 0 into the middle of a transaction.
    pullOps(*a.kernel, 0, 137);

    sim::CheckpointOut out;
    a.wl->serialize(out);

    Host b(GetParam(), 7);
    sim::CheckpointIn in(out.bytes());
    b.wl->unserialize(in);

    const auto oa = pullOps(*a.kernel, 0, 1000);
    const auto ob = pullOps(*b.kernel, 0, 1000);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
        EXPECT_EQ(oa[i].kind, ob[i].kind);
        EXPECT_EQ(oa[i].addr, ob[i].addr);
        EXPECT_EQ(oa[i].count, ob[i].count);
    }
}

TEST(WorkloadNames, RoundTrip)
{
    auto parse = [](const std::string &name) {
        WorkloadKind kind = WorkloadKind::Ocean;
        EXPECT_TRUE(kindFromName(name, kind)) << name;
        return kind;
    };
    for (WorkloadKind kind : allKinds)
        EXPECT_EQ(parse(kindName(kind)), kind);
    EXPECT_EQ(parse("oltp"), WorkloadKind::Oltp);
    EXPECT_EQ(parse("SPECJBB"), WorkloadKind::SpecJbb);
    EXPECT_EQ(parse("jbb"), WorkloadKind::SpecJbb);

    WorkloadKind untouched = WorkloadKind::Apache;
    EXPECT_FALSE(kindFromName("tpcc", untouched));
    EXPECT_EQ(untouched, WorkloadKind::Apache);
}

TEST(OltpWorkload, UsesEightUsersPerCpuByDefault)
{
    Host h(WorkloadKind::Oltp, 1, 4);
    EXPECT_EQ(h.wl->numThreads(), 32u);
}

TEST(OltpWorkload, HasFiveTransactionTypes)
{
    Host h(WorkloadKind::Oltp);
    std::set<int> types;
    for (sim::ThreadId tid = 0; tid < 8; ++tid) {
        for (const Op &op : pullOps(*h.kernel, tid, 40000)) {
            if (op.kind == OpKind::TxnEnd)
                types.insert(op.id);
        }
    }
    EXPECT_EQ(types.size(), 5u);
}

TEST(OltpWorkload, UsesLocksAndLog)
{
    Host h(WorkloadKind::Oltp);
    int locks = 0;
    for (const Op &op : pullOps(*h.kernel, 0, 20000))
        locks += op.kind == OpKind::Lock;
    EXPECT_GT(locks, 5);
}

TEST(ScientificWorkloads, OneThreadPerCpu)
{
    Host b(WorkloadKind::Barnes, 1, 4);
    EXPECT_EQ(b.wl->numThreads(), 4u);
    Host o(WorkloadKind::Ocean, 1, 4);
    EXPECT_EQ(o.wl->numThreads(), 4u);
}

TEST(ScientificWorkloads, BarrierCountsMatchAcrossThreads)
{
    for (WorkloadKind kind :
         {WorkloadKind::Barnes, WorkloadKind::Ocean}) {
        Host h(kind, 1, 4);
        std::vector<int> counts;
        for (sim::ThreadId tid = 0; tid < 4; ++tid) {
            int barriers = 0;
            // Pull until End (streams are finite).
            const auto ops = pullOps(*h.kernel, tid, 5'000'000);
            ASSERT_EQ(ops.back().kind, OpKind::End)
                << kindName(kind) << " thread " << tid
                << " did not finish";
            for (const Op &op : ops)
                barriers += op.kind == OpKind::Barrier;
            counts.push_back(barriers);
        }
        for (int c : counts)
            EXPECT_EQ(c, counts[0])
                << kindName(kind)
                << ": mismatched barrier counts deadlock";
    }
}

TEST(ScientificWorkloads, ExactlyOneTransactionTotal)
{
    Host h(WorkloadKind::Barnes, 1, 4);
    int txns = 0;
    for (sim::ThreadId tid = 0; tid < 4; ++tid) {
        for (const Op &op : pullOps(*h.kernel, tid, 5'000'000))
            txns += op.kind == OpKind::TxnEnd;
    }
    EXPECT_EQ(txns, 1) << "the whole benchmark is one transaction";
}

TEST(SpecJbbWorkload, GcTransactionsAreHeavy)
{
    Host h(WorkloadKind::SpecJbb);
    // Type-1 transactions are GC pauses; they must be much larger
    // than regular transactions.
    std::uint64_t regularMem = 0, gcMem = 0;
    std::uint64_t regularCount = 0, gcCount = 0;
    std::uint64_t txnMem = 0;
    cpu::OpStream &s = h.kernel->thread(0).stream();
    for (int i = 0; i < 2'000'000; ++i) {
        const Op op = s.current();
        if (op.kind == OpKind::End)
            break;
        if (op.kind == OpKind::Load || op.kind == OpKind::Store) {
            ++txnMem;
        } else if (op.kind == OpKind::TxnEnd) {
            if (op.id == 1) {
                gcMem += txnMem;
                ++gcCount;
            } else {
                regularMem += txnMem;
                ++regularCount;
            }
            txnMem = 0;
            if (gcCount >= 3)
                break;
        }
        s.advance();
    }
    ASSERT_GT(gcCount, 0u);
    ASSERT_GT(regularCount, 0u);
    EXPECT_GT(gcMem / gcCount, 10 * (regularMem / regularCount));
}

TEST(SlashcodeWorkload, TransactionSizesVaryWidely)
{
    Host h(WorkloadKind::Slashcode);
    std::vector<std::uint64_t> sizes;
    std::uint64_t cur = 0;
    cpu::OpStream &s = h.kernel->thread(0).stream();
    while (sizes.size() < 12) {
        const Op op = s.current();
        cur += op.kind == OpKind::Compute ? op.count : 1;
        if (op.kind == OpKind::TxnEnd) {
            sizes.push_back(cur);
            cur = 0;
        }
        s.advance();
    }
    const auto [mn, mx] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_GT(*mx, 2 * *mn)
        << "page-render cost should vary widely";
}

TEST(WorkloadDefaults, TxnCountsFollowTable3Scaling)
{
    EXPECT_EQ(Host(WorkloadKind::Barnes).wl->defaultTxnCount(), 1u);
    EXPECT_EQ(Host(WorkloadKind::Ocean).wl->defaultTxnCount(), 1u);
    EXPECT_EQ(Host(WorkloadKind::EcPerf).wl->defaultTxnCount(), 5u);
    EXPECT_EQ(Host(WorkloadKind::Slashcode).wl->defaultTxnCount(),
              30u);
    EXPECT_GT(Host(WorkloadKind::Oltp).wl->defaultTxnCount(), 100u);
    EXPECT_GT(Host(WorkloadKind::SpecJbb).wl->defaultTxnCount(),
              1000u);
}

} // namespace
} // namespace workload
} // namespace varsim
