#include "cpu/ooo_cpu.hh"

#include <limits>

#include "sim/statistics.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace cpu
{

OoOCpu::OoOCpu(std::string name, sim::EventQueue &eq,
               const CpuConfig &config, mem::L1Cache &ic,
               mem::L1Cache &dc, sim::CpuId id)
    : BaseCpu(std::move(name), eq, config, ic, dc, id)
{}

void
OoOCpu::resetPipeline()
{
    VARSIM_ASSERT(missQueue.empty(),
                  "%s: pipeline reset with misses in flight",
                  name().c_str());
    BaseCpu::resetPipeline();
    ipcCarry = 0;
    instrIdx = 0;
    awaitingRetire = false;
}

bool
OoOCpu::pipelineEmpty()
{
    retireCompleted();
    if (missQueue.empty())
        return true;
    awaitingRetire = true;
    return false;
}

bool
OoOCpu::quiescent() const
{
    return BaseCpu::quiescent() && missQueue.empty();
}

void
OoOCpu::retireCompleted()
{
    while (!missQueue.empty() && missQueue.front().done)
        missQueue.pop_front();
}

void
OoOCpu::addDispatch(std::uint64_t n)
{
    const std::uint64_t total = ipcCarry + n;
    owed += total / cfg.issueIpc;
    ipcCarry = static_cast<std::uint32_t>(total % cfg.issueIpc);
}

void
OoOCpu::memResponse(std::uint64_t tag)
{
    if (awaitingMem && tag == blockingTag) {
        BaseCpu::memResponse(tag);
        return;
    }
    for (MissEntry &e : missQueue) {
        if (e.tag == tag) {
            e.done = true;
            if (awaitingRetire) {
                awaitingRetire = false;
                resume();
            }
            return;
        }
    }
    sim::panic("%s: memory response with unknown tag %llu",
               name().c_str(), static_cast<unsigned long long>(tag));
}

bool
OoOCpu::retireControl(const Op &op)
{
    bool wrong = false;
    switch (op.kind) {
      case OpKind::Branch: {
        ++stats_.branches;
        const bool taken = op.id != 0;
        const bool pred = yags.predict(op.addr);
        yags.recordOutcome(pred == taken);
        yags.update(op.addr, taken);
        wrong = pred != taken;
        break;
      }
      case OpKind::Call:
        ras.push(op.count);
        break;
      case OpKind::Return:
        ++stats_.branches;
        wrong = ras.pop() != op.count;
        break;
      case OpKind::IndirectBranch: {
        ++stats_.branches;
        const sim::Addr predicted = indirect.predict(op.addr);
        indirect.update(op.addr, op.count);
        wrong = predicted != op.count;
        break;
      }
      default:
        break;
    }
    if (wrong)
        ++stats_.mispredicts;
    return wrong;
}

void
OoOCpu::resume()
{
    if (fastModeActive()) {
        BaseCpu::resume();
        return;
    }
    if (idle_ || tc_ == nullptr || awaitingMem || awaitingRetire ||
        resumeEvent.scheduled()) {
        return;
    }

    retireCompleted();

    // As in the blocking engine: the thread cannot change under us.
    OpStream &ops = tc_->stream();
    FetchState &f = tc_->fetchState();
    while (true) {
        switch (phase) {
          case Phase::Start:
            if (stopAtBoundary())
                return;
            remaining = instrCost(ops.current());
            phase = Phase::Instr;
            break;
          case Phase::Instr:
            while (remaining > 0) {
                if (f.sinceBoundary == 0) {
                    const sim::Addr ba =
                        f.blockAddr(icache.blockSize());
                    if (!icache.tryAccess(ba, false)) {
                        // Fetch misses serialize the front end.
                        if (!payDebt())
                            return;
                        sendBlocking(icache, ba, false);
                        return;
                    }
                }
                std::uint64_t room =
                    std::numeric_limits<std::uint64_t>::max();
                if (!missQueue.empty()) {
                    retireCompleted();
                    if (!missQueue.empty()) {
                        const std::uint64_t limit =
                            missQueue.front().instrIdx +
                            cfg.robEntries;
                        room = limit > instrIdx ? limit - instrIdx
                                                : 0;
                        if (room == 0) {
                            // ROB full: stall until the oldest miss
                            // retires.
                            if (!payDebt())
                                return;
                            awaitingRetire = true;
                            return;
                        }
                    }
                }
                const std::uint64_t step = f.advanceWithinBlock(
                    remaining < room ? remaining : room);
                remaining -= step;
                instrIdx += step;
                addDispatch(step);
                stats_.instructions += step;
                if (owed >= cfg.debtThreshold) {
                    if (!payDebt())
                        return;
                }
            }
            phase = Phase::Data;
            break;
          case Phase::Data: {
            const Op &op = ops.current();
            if (op.kind == OpKind::Load ||
                op.kind == OpKind::Store) {
                const bool write = op.kind == OpKind::Store;
                if (dcache.tryAccess(op.addr, write)) {
                    ++stats_.memOps;
                    phase = Phase::Finish;
                    break;
                }
                // Dependent loads (pointer chases) cannot overlap
                // earlier misses: the address is not known until
                // they complete.
                if (op.kind == OpKind::Load && op.id == 1 &&
                    !missQueue.empty()) {
                    if (!payDebt() || !pipelineEmpty())
                        return;
                }
                // Miss: claim an MSHR; overlap with later work.
                if (missQueue.size() >= cfg.mshrEntries) {
                    if (!payDebt())
                        return;
                    retireCompleted();
                    if (missQueue.size() >= cfg.mshrEntries) {
                        awaitingRetire = true;
                        return;
                    }
                }
                if (!payDebt())
                    return;
                ++stats_.memOps;
                missQueue.push_back({instrIdx, nextTag, false});
                dcache.access({op.addr, write, false, nextTag++});
                phase = Phase::Finish;
                break;
            }
            if (op.kind == OpKind::Lock ||
                op.kind == OpKind::Unlock) {
                // Synchronizing RMW: drain the pipeline, then block
                // on the store (acquire/release semantics).
                if (!payDebt() || !pipelineEmpty())
                    return;
                if (!dcache.tryAccess(op.addr, true)) {
                    ++stats_.memOps;
                    sendBlocking(dcache, op.addr, true);
                    phase = Phase::Finish;
                    return;
                }
                ++stats_.memOps;
            }
            phase = Phase::Finish;
            break;
          }
          case Phase::Finish: {
            const Op op = ops.current();
            switch (op.kind) {
              case OpKind::Compute:
              case OpKind::Load:
              case OpKind::Store:
                break;
              case OpKind::Branch:
              case OpKind::Call:
              case OpKind::Return:
              case OpKind::IndirectBranch:
                if (retireControl(op))
                    owed += cfg.mispredictPenalty;
                break;
              default:
                // OS-visible op: drain, then trap to the host.
                if (!payDebt() || !pipelineEmpty())
                    return;
                phase = Phase::Start;
                host().syscall(*this, *tc_, op);
                return;
            }
            ops.advance();
            phase = Phase::Start;
            break;
          }
        }
    }
}

void
OoOCpu::checkpoint(sim::CheckpointIo &cp)
{
    // A restore resets the pipeline in the base; the partial-issue
    // carry is saved residue, restored after that reset.
    BaseCpu::checkpoint(cp);
    yags.checkpoint(cp);
    ras.checkpoint(cp);
    indirect.checkpoint(cp);
    cp.field(ipcCarry);
}

void
OoOCpu::regStats(sim::statistics::Registry &r)
{
    BaseCpu::regStats(r);
    const std::string &n = name();
    r.regFormula(n + ".bp_lookups",
                 [this] {
                     return static_cast<double>(yags.lookups());
                 },
                 "direction-predictor lookups");
    r.regFormula(n + ".bp_accuracy",
                 [this] {
                     const double looked =
                         static_cast<double>(yags.lookups());
                     return looked > 0.0
                                ? static_cast<double>(
                                      yags.correct()) /
                                      looked
                                : 0.0;
                 },
                 "direction-predictor hit rate");
}

} // namespace cpu
} // namespace varsim
