#include "workload/program.hh"

#include "sim/logging.hh"

namespace varsim
{
namespace workload
{

SyntheticProgram::SyntheticProgram(
    std::shared_ptr<TxnGenerator> generator, int tid,
    std::uint64_t seed)
    : gen(std::move(generator)), tid_(tid), rng(seed)
{
    VARSIM_ASSERT(gen != nullptr, "program needs a generator");
}

void
SyntheticProgram::refill()
{
    buf.clear();
    pos = 0;
    gen->generate(tid_, txnIndex_, rng, buf);
    ++txnIndex_;
    VARSIM_ASSERT(!buf.empty(),
                  "generator produced an empty transaction "
                  "(tid %d, txn %llu)",
                  tid_,
                  static_cast<unsigned long long>(txnIndex_ - 1));
    for (std::size_t i = 0; i + 1 < buf.size(); ++i) {
        VARSIM_ASSERT(buf[i].kind != cpu::OpKind::End,
                      "End op must be the last op of a transaction");
    }
}

const cpu::Op &
SyntheticProgram::current()
{
    if (pos >= buf.size())
        refill();
    return buf[pos];
}

void
SyntheticProgram::advance()
{
    VARSIM_ASSERT(pos < buf.size(), "advance past the buffer");
    VARSIM_ASSERT(buf[pos].kind != cpu::OpKind::End,
                  "advance past End");
    ++pos;
}

void
SyntheticProgram::checkpoint(sim::CheckpointIo &cp)
{
    rng.checkpoint(cp);
    cp.field(txnIndex_);
    // Field-wise, not a raw vector dump: Op has interior padding,
    // and snapshot bytes must be a pure function of simulated state
    // (the persistent library content-addresses them; two shards
    // warming the same key must publish byte-identical archives).
    cp.elements(buf, [&](cpu::Op &op) {
        cp.field(op.kind);
        cp.field(op.count);
        cp.field(op.addr);
        cp.field(op.id);
    });
    cp.field(pos);
}

namespace emit
{

void
indexWalk(std::vector<cpu::Op> &o, sim::Random &rng, sim::Addr base,
          std::size_t nodes, int depth,
          std::uint64_t compute_per_level, sim::Addr branch_pc,
          std::size_t block_bytes)
{
    for (int level = 0; level < depth; ++level) {
        const std::size_t node = static_cast<std::size_t>(
            rng.uniformInt(0, nodes > 0 ? nodes - 1 : 0));
        dependentLoad(
            o, base + static_cast<sim::Addr>(node) * block_bytes);
        compute(o, compute_per_level);
        branch(o, branch_pc, level + 1 < depth);
    }
}

void
scanBlocks(std::vector<cpu::Op> &o, sim::Addr base, std::size_t count,
           bool write, std::uint64_t compute_per_block,
           std::size_t block_bytes)
{
    for (std::size_t i = 0; i < count; ++i) {
        const sim::Addr a =
            base + static_cast<sim::Addr>(i) * block_bytes;
        if (write)
            store(o, a);
        else
            load(o, a);
        compute(o, compute_per_block);
    }
}

void
rowAccess(std::vector<cpu::Op> &o, sim::Addr row_base,
          std::size_t row_bytes, bool write,
          std::uint64_t compute_per_block, std::size_t block_bytes)
{
    const std::size_t blocks =
        (row_bytes + block_bytes - 1) / block_bytes;
    for (std::size_t i = 0; i < blocks; ++i) {
        load(o, row_base + static_cast<sim::Addr>(i) * block_bytes);
        compute(o, compute_per_block);
    }
    if (write)
        store(o, row_base);
}

void
loop(std::vector<cpu::Op> &o, sim::Addr pc, std::size_t iters,
     std::uint64_t compute_per_iter)
{
    for (std::size_t i = 0; i < iters; ++i) {
        compute(o, compute_per_iter);
        branch(o, pc, i + 1 < iters);
    }
}

} // namespace emit

} // namespace workload
} // namespace varsim
