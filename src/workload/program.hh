/**
 * @file
 * The synthetic-workload program engine.
 *
 * A SyntheticProgram is a thread's op stream: it lazily materializes
 * one transaction's worth of ops at a time from a workload-specific
 * TxnGenerator. Generation is a pure function of (thread id,
 * transaction index, the thread's private RNG stream) — never of
 * simulated time — so every run of a given workload seed executes
 * identical per-thread instruction streams, and only the
 * *interleaving* differs between runs. This is what lets the
 * memory-latency perturbation of Section 3.3 remain the sole random
 * input while still producing the paper's emergent space variability.
 */

#ifndef VARSIM_WORKLOAD_PROGRAM_HH
#define VARSIM_WORKLOAD_PROGRAM_HH

#include <memory>
#include <vector>

#include "cpu/op.hh"
#include "sim/random.hh"
#include "sim/serialize.hh"

namespace varsim
{
namespace workload
{

/**
 * Strategy that materializes one transaction for one thread.
 * Implementations must be deterministic given the arguments and must
 * keep no mutable per-call state of their own (all evolving state
 * lives in the per-thread RNG and the transaction index).
 */
class TxnGenerator
{
  public:
    virtual ~TxnGenerator() = default;

    /**
     * Append the ops of thread @p tid's transaction number
     * @p txn_index to @p out. The final op of a thread's last
     * transaction must be OpKind::End; every other transaction ends
     * with OpKind::TxnEnd (or a Sleep/Yield tail after it).
     */
    virtual void generate(int tid, std::uint64_t txn_index,
                          sim::Random &rng,
                          std::vector<cpu::Op> &out) = 0;
};

/**
 * The op stream fed to CPUs: buffers one generated transaction and
 * refills on demand.
 */
class SyntheticProgram : public cpu::OpStream
{
  public:
    SyntheticProgram(std::shared_ptr<TxnGenerator> generator, int tid,
                     std::uint64_t seed);

    const cpu::Op &current() override;
    void advance() override;

    void checkpoint(sim::CheckpointIo &cp) override;

  private:
    void refill();

    std::shared_ptr<TxnGenerator> gen;
    int tid_;
    sim::Random rng;
    std::uint64_t txnIndex_ = 0;
    std::vector<cpu::Op> buf;
    std::size_t pos = 0;
};

/** Simple bump allocator for the simulated physical address space. */
class AddressSpace
{
  public:
    explicit AddressSpace(sim::Addr base = 0x1000'0000,
                          std::size_t alignment = 64)
        : next(base), align(alignment)
    {}

    /** Reserve @p bytes; returns the region base. */
    sim::Addr
    alloc(std::uint64_t bytes)
    {
        const sim::Addr r = next;
        next += (bytes + align - 1) / align * align;
        return r;
    }

    /** Total reserved so far (end of allocated space). */
    sim::Addr end() const { return next; }

  private:
    sim::Addr next;
    std::size_t align;
};

/**
 * Op-emission helpers shared by the workload generators.
 */
namespace emit
{

inline void
compute(std::vector<cpu::Op> &o, std::uint64_t n)
{
    if (n > 0)
        o.push_back({cpu::OpKind::Compute, n, 0, 0});
}

inline void
load(std::vector<cpu::Op> &o, sim::Addr addr)
{
    o.push_back({cpu::OpKind::Load, 0, addr, 0});
}

/** A load whose address depends on the previous load (chase). */
inline void
dependentLoad(std::vector<cpu::Op> &o, sim::Addr addr)
{
    o.push_back({cpu::OpKind::Load, 0, addr, 1});
}

inline void
store(std::vector<cpu::Op> &o, sim::Addr addr)
{
    o.push_back({cpu::OpKind::Store, 0, addr, 0});
}

inline void
branch(std::vector<cpu::Op> &o, sim::Addr pc, bool taken)
{
    o.push_back({cpu::OpKind::Branch, 0, pc, taken ? 1 : 0});
}

inline void
call(std::vector<cpu::Op> &o, sim::Addr return_addr)
{
    o.push_back({cpu::OpKind::Call, return_addr, 0, 0});
}

inline void
ret(std::vector<cpu::Op> &o, sim::Addr return_addr)
{
    o.push_back({cpu::OpKind::Return, return_addr, 0, 0});
}

inline void
indirectBranch(std::vector<cpu::Op> &o, sim::Addr pc,
               sim::Addr target)
{
    o.push_back({cpu::OpKind::IndirectBranch, target, pc, 0});
}

inline void
lock(std::vector<cpu::Op> &o, int id, sim::Addr word)
{
    o.push_back({cpu::OpKind::Lock, 0, word, id});
}

inline void
unlock(std::vector<cpu::Op> &o, int id, sim::Addr word)
{
    o.push_back({cpu::OpKind::Unlock, 0, word, id});
}

inline void
barrier(std::vector<cpu::Op> &o, int id)
{
    o.push_back({cpu::OpKind::Barrier, 0, 0, id});
}

inline void
txnEnd(std::vector<cpu::Op> &o, int type)
{
    o.push_back({cpu::OpKind::TxnEnd, 0, 0, type});
}

inline void
sleep(std::vector<cpu::Op> &o, std::uint64_t ticks)
{
    if (ticks > 0)
        o.push_back({cpu::OpKind::Sleep, ticks, 0, 0});
}

inline void
end(std::vector<cpu::Op> &o)
{
    o.push_back({cpu::OpKind::End, 0, 0, 0});
}

/**
 * A pointer-chase index walk (B-tree style): @p depth dependent loads
 * at pseudo-random nodes of a region of @p nodes cache blocks, with a
 * loop branch and a little compute per level.
 */
void indexWalk(std::vector<cpu::Op> &o, sim::Random &rng,
               sim::Addr base, std::size_t nodes, int depth,
               std::uint64_t compute_per_level, sim::Addr branch_pc,
               std::size_t block_bytes = 64);

/**
 * A sequential scan of @p count blocks starting at @p base, reading
 * or writing one word per block with compute in between.
 */
void scanBlocks(std::vector<cpu::Op> &o, sim::Addr base,
                std::size_t count, bool write,
                std::uint64_t compute_per_block,
                std::size_t block_bytes = 64);

/**
 * Touch a row of @p row_bytes at @p row_base: read every block, then
 * optionally dirty the first block.
 */
void rowAccess(std::vector<cpu::Op> &o, sim::Addr row_base,
               std::size_t row_bytes, bool write,
               std::uint64_t compute_per_block,
               std::size_t block_bytes = 64);

/**
 * An inner loop: @p iters taken branches at @p pc followed by one
 * not-taken exit branch, with @p compute_per_iter work per
 * iteration. Exercises the direction predictor with a learnable
 * pattern.
 */
void loop(std::vector<cpu::Op> &o, sim::Addr pc, std::size_t iters,
          std::uint64_t compute_per_iter);

} // namespace emit

} // namespace workload
} // namespace varsim

#endif // VARSIM_WORKLOAD_PROGRAM_HH
