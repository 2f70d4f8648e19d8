#include "cpu/base_cpu.hh"

#include "sim/logging.hh"
#include "sim/statistics.hh"

namespace varsim
{
namespace cpu
{

BaseCpu::BaseCpu(std::string name, sim::EventQueue &eq,
                 const CpuConfig &config, mem::L1Cache &ic,
                 mem::L1Cache &dc, sim::CpuId id)
    : SimObject(std::move(name), eq), cfg(config), icache(ic),
      dcache(dc),
      resumeEvent([this] { resume(); }, this->name() + ".resume",
                  sim::Event::cpuTickPri),
      id_(id)
{
    icache.setClient(this);
    dcache.setClient(this);
}

CpuHost &
BaseCpu::host()
{
    VARSIM_ASSERT(host_ != nullptr, "%s has no host attached",
                  name().c_str());
    return *host_;
}

void
BaseCpu::runThread(ThreadContext *tc, sim::Tick delay)
{
    VARSIM_ASSERT(tc != nullptr, "runThread(null)");
    VARSIM_ASSERT(!resumeEvent.scheduled(),
                  "%s: dispatch while still active", name().c_str());
    if (idle_)
        stats_.idleTicks += curTick() - idleSince;
    tc_ = tc;
    idle_ = false;
    ++stats_.contextSwitches;
    resetPipeline();
    scheduleIn(resumeEvent, delay);
}

void
BaseCpu::continueThread(sim::Tick delay)
{
    VARSIM_ASSERT(tc_ != nullptr, "%s: continue with no thread",
                  name().c_str());
    VARSIM_ASSERT(!resumeEvent.scheduled(),
                  "%s: continue while still active", name().c_str());
    scheduleIn(resumeEvent, delay);
}

void
BaseCpu::setIdle()
{
    if (resumeEvent.scheduled())
        deschedule(resumeEvent);
    tc_ = nullptr;
    if (!idle_)
        idleSince = curTick();
    idle_ = true;
    resetPipeline();
}

void
BaseCpu::resetPipeline()
{
    phase = Phase::Start;
    remaining = 0;
    owed = 0;
    awaitingMem = false;
}

bool
BaseCpu::quiescent() const
{
    return !awaitingMem && owed == 0 && phase == Phase::Start;
}

void
BaseCpu::setFastMode(bool on)
{
    if (fastMode_ == on)
        return;
    // Mode flips happen between drain periods: every CPU is parked
    // at an op boundary with its debts settled, so both modes run
    // the op stream on one phase and debt with no partial-op residue.
    VARSIM_ASSERT(quiescent(), "%s: fast-mode switch mid-op",
                  name().c_str());
    fastMode_ = on;
}

bool
BaseCpu::stopAtBoundary()
{
    if (!host().draining() && !preemptPending)
        return false;
    if (!payDebt() || !pipelineEmpty())
        return true;
    if (host().draining()) {
        host().drained(*this);
        return true;
    }
    preemptPending = false;
    host().preempted(*this);
    return true;
}

bool
BaseCpu::retireControl(const Op &op)
{
    (void)op;
    ++stats_.branches;
    return false;
}

void
BaseCpu::memResponse(std::uint64_t tag)
{
    VARSIM_ASSERT(awaitingMem && tag == blockingTag,
                  "%s: unexpected memory response", name().c_str());
    awaitingMem = false;
    resume();
}

inline bool
BaseCpu::blockingAccess(mem::L1Cache &cache, sim::Addr addr,
                        bool write)
{
    if (fastMode_) {
        owed += cache.warmAccess(addr, write);
        return true;
    }
    if (cache.tryAccess(addr, write))
        return true;
    if (payDebt())
        sendBlocking(cache, addr, write);
    return false;
}

void
BaseCpu::resume()
{
    if (idle_ || tc_ == nullptr || awaitingMem ||
        resumeEvent.scheduled()) {
        return;
    }

    // The attached thread changes only through the host, and every
    // upcall to it returns from here: read its stream once per call.
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
                if (f.sinceBoundary == 0 &&
                    !blockingAccess(icache,
                                    f.blockAddr(icache.blockSize()),
                                    false)) {
                    return;
                }
                const std::uint64_t step =
                    f.advanceWithinBlock(remaining);
                remaining -= step;
                owed += step;
                stats_.instructions += step;
                if (owed >= cfg.debtThreshold) {
                    if (!payDebt())
                        return;
                }
            }
            phase = Phase::Data;
            break;
          case Phase::Data: {
            // A Lock/Unlock is a synchronizing RMW on the lock word.
            // It happens exactly once: paying the debt before the
            // trap parks the CPU in Finish, and a re-entry that
            // repeated the RMW would livelock when contending
            // spinners keep stealing the line from each other.
            const Op &op = ops.current();
            if (op.kind == OpKind::Load || op.kind == OpKind::Store ||
                op.kind == OpKind::Lock ||
                op.kind == OpKind::Unlock) {
                const bool done = blockingAccess(
                    dcache, op.addr, op.kind != OpKind::Load);
                if (!done && !awaitingMem)
                    return; // paid the debt first: retry on resume
                ++stats_.memOps;
            }
            phase = Phase::Finish;
            if (awaitingMem)
                return; // the miss's response finishes the op
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
                retireControl(op);
                break;
              default:
                // OS-visible op: settle the debt, then trap so the
                // scheduler sees the op at the right tick.
                if (!payDebt())
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
BaseCpu::resumeFromDrain()
{
    if (idle_ || tc_ == nullptr)
        return;
    if (!resumeEvent.scheduled())
        scheduleIn(resumeEvent, 0);
}

std::uint64_t
BaseCpu::instrCost(const Op &op)
{
    switch (op.kind) {
      case OpKind::Compute:
        return op.count;
      case OpKind::Load:
      case OpKind::Store:
      case OpKind::Branch:
      case OpKind::Call:
      case OpKind::Return:
      case OpKind::IndirectBranch:
      case OpKind::Lock:
      case OpKind::Unlock:
        return 1;
      default:
        return 0;
    }
}

void
BaseCpu::checkpoint(sim::CheckpointIo &cp)
{
    cp.field(stats_);
    cp.field(nextTag);
    // A drain can begin with a quantum preemption already pending;
    // the CPU parks at its op boundary without consuming the flag.
    // Dropping it across a restore would skip that context switch
    // and fork the schedule from the original's.
    cp.field(preemptPending);
    if (cp.loading())
        resetPipeline();
    else
        VARSIM_ASSERT(quiescent(), "%s: checkpoint while not quiescent",
                      name().c_str());
}

void
BaseCpu::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".instructions", &stats_.instructions);
    r.regScalar(n + ".mem_ops", &stats_.memOps);
    r.regScalar(n + ".branches", &stats_.branches);
    r.regScalar(n + ".mispredicts", &stats_.mispredicts);
    r.regScalar(n + ".context_switches",
                &stats_.contextSwitches);
    r.regScalar(n + ".idle_ticks", &stats_.idleTicks);
    r.regFormula(n + ".ipc", [this] {
        const double elapsed = static_cast<double>(curTick());
        return elapsed > 0.0
                   ? static_cast<double>(stats_.instructions) /
                         elapsed
                   : 0.0;
    });
}

} // namespace cpu
} // namespace varsim
