#include "core/simulation.hh"

#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace core
{

Simulation::Simulation(const SystemConfig &sys,
                       const workload::WorkloadParams &wl)
    : sys_(sys), wlParams(wl)
{
    mem_ = std::make_unique<mem::MemSystem>("system.mem", eq,
                                            sys_.mem);
    std::vector<cpu::BaseCpu *> cpuPtrs;
    for (std::size_t n = 0; n < sys_.numCpus(); ++n) {
        const std::string cname = sim::format("system.cpu%zu", n);
        std::unique_ptr<cpu::BaseCpu> c;
        if (sys_.cpu.model == cpu::CpuConfig::Model::OutOfOrder) {
            c = std::make_unique<cpu::OoOCpu>(
                cname, eq, sys_.cpu, mem_->icache(n),
                mem_->dcache(n), static_cast<sim::CpuId>(n));
        } else {
            c = std::make_unique<cpu::SimpleCpu>(
                cname, eq, sys_.cpu, mem_->icache(n),
                mem_->dcache(n), static_cast<sim::CpuId>(n));
        }
        cpuPtrs.push_back(c.get());
        cpus_.push_back(std::move(c));
    }
    kernel_ = std::make_unique<os::Kernel>("system.kernel", eq,
                                           sys_.os, cpuPtrs);
    kernel_->setTxnSink(this);
    wl_ = workload::Workload::build(wlParams, *kernel_,
                                    sys_.numCpus(),
                                    sys_.mem.blockBytes);

    // Every SimObject registers its counters once, at construction;
    // values are read lazily at dump time only.
    mem_->regStats(statsReg);
    for (const auto &c : cpus_)
        c->regStats(statsReg);
    kernel_->regStats(statsReg);
    statsReg.regFormula(
        "sim.ticks",
        [this] { return static_cast<double>(eq.curTick()); },
        "simulated time");
    statsReg.regFormula(
        "sim.events_dispatched",
        [this] { return static_cast<double>(eq.numDispatched()); },
        "host-side event dispatch count");
    statsReg.regFormula(
        "sim.txns",
        [this] { return static_cast<double>(txnCount); },
        "transactions completed");

    // Sampled-estimate exports. Registered unconditionally so every
    // run (sampled or not) emits the same metric schema; the slots
    // stay zero unless a sampling controller fills them.
    statsReg.regFormula(
        "sim.sampled.enabled",
        [this] { return sampled_.enabled ? 1.0 : 0.0; },
        "1 if this run's estimates came from sampling");
    statsReg.regFormula(
        "sim.sampled.windows",
        [this] { return static_cast<double>(sampled_.windows); },
        "measurement windows taken");
    statsReg.regFormula(
        "sim.sampled.fast_txns",
        [this] { return static_cast<double>(sampled_.fastTxns); },
        "transactions executed under functional warming");
    statsReg.regFormula(
        "sim.sampled.measured_txns",
        [this] {
            return static_cast<double>(sampled_.measuredTxns);
        },
        "transactions inside measured windows");
    statsReg.regFormula(
        "sim.sampled.fallback",
        [this] { return sampled_.fullDetailFallback ? 1.0 : 0.0; },
        "1 if the run degraded to full detail");
    statsReg.regFormula(
        "sim.sampled.confidence",
        [this] { return sampled_.confidence; },
        "confidence level of the reported intervals");
    statsReg.regFormula(
        "sim.sampled.cpt_mean",
        [this] { return sampled_.cptMean; },
        "sampled cycles-per-transaction point estimate");
    statsReg.regFormula(
        "sim.sampled.cpt_lo",
        [this] { return sampled_.cptLo; },
        "cycles-per-transaction interval lower bound");
    statsReg.regFormula(
        "sim.sampled.cpt_hi",
        [this] { return sampled_.cptHi; },
        "cycles-per-transaction interval upper bound");
    statsReg.regFormula(
        "sim.sampled.ipc_mean",
        [this] { return sampled_.ipcMean; },
        "sampled per-CPU IPC point estimate");
    statsReg.regFormula(
        "sim.sampled.ipc_lo", [this] { return sampled_.ipcLo; },
        "IPC interval lower bound");
    statsReg.regFormula(
        "sim.sampled.ipc_hi", [this] { return sampled_.ipcHi; },
        "IPC interval upper bound");
    statsReg.regFormula(
        "sim.sampled.l2_miss_mean",
        [this] { return sampled_.l2MissMean; },
        "sampled L2 miss-rate point estimate");
    statsReg.regFormula(
        "sim.sampled.l2_miss_lo",
        [this] { return sampled_.l2MissLo; },
        "L2 miss-rate interval lower bound");
    statsReg.regFormula(
        "sim.sampled.l2_miss_hi",
        [this] { return sampled_.l2MissHi; },
        "L2 miss-rate interval upper bound");
}

Simulation::~Simulation() = default;

void
Simulation::seedPerturbation(std::uint64_t seed)
{
    mem_->seedPerturbation(seed);
}

void
Simulation::bootIfNeeded()
{
    if (booted)
        return;
    booted = true;
    kernel_->start();
}

void
Simulation::transactionCompleted(sim::ThreadId tid, int type,
                                 sim::Tick when)
{
    ++txnCount;
    if (recording)
        txns.push_back({when, type, tid});
    if (txnTarget != 0 && txnCount >= txnTarget)
        eq.requestStop();
}

Simulation::Progress
Simulation::runTransactions(std::uint64_t n)
{
    bootIfNeeded();
    const std::uint64_t startTxns = txnCount;
    const sim::Tick startTick = eq.curTick();
    txnTarget = txnCount + n;
    eq.clearStop();
    eq.run();
    txnTarget = 0;
    eq.clearStop();

    Progress p;
    p.txns = txnCount - startTxns;
    p.elapsed = eq.curTick() - startTick;
    p.workloadEnded = eq.empty();
    return p;
}

void
Simulation::setFastMode(bool on)
{
    bootIfNeeded();
    if (fastMode_ == on)
        return;
    // Drain to a quiescent op boundary: every CPU parked with debts
    // settled, no misses in flight and the queue empty. The engines
    // then swap with no timing residue.
    quiesce();
    for (const auto &c : cpus_)
        c->setFastMode(on);
    fastMode_ = on;
    kernel_->endDrain();
}

void
Simulation::quiesce()
{
    kernel_->beginDrain();
    eq.clearStop();
    eq.run();
    VARSIM_ASSERT(eq.empty(),
                  "quiesce: event queue still has %zu events",
                  eq.size());
    VARSIM_ASSERT(kernel_->fullyDrained(),
                  "quiesce: kernel not drained");
    VARSIM_ASSERT(mem_->pendingTransactions() == 0,
                  "quiesce: %zu memory transactions in flight",
                  mem_->pendingTransactions());
    mem_->drain();
}

Checkpoint
Simulation::checkpoint()
{
    bootIfNeeded();
    quiesce();

    sim::CheckpointOut bytes;
    sim::CheckpointIo cp(bytes);
    walk(cp);

    // Resume execution; checkpointing is non-destructive.
    kernel_->endDrain();

    Checkpoint out;
    out.bytes = bytes.bytes();
    return out;
}

std::unique_ptr<Simulation>
Simulation::restore(const SystemConfig &sys,
                    const workload::WorkloadParams &wl,
                    const Checkpoint &cp)
{
    VARSIM_ASSERT(!cp.empty(), "restore from an empty checkpoint");
    auto simn = std::make_unique<Simulation>(sys, wl);
    sim::CheckpointIn in(cp.bytes, cp.format);
    sim::CheckpointIo io(in);
    simn->walk(io);
    VARSIM_ASSERT(in.exhausted(),
                  "checkpoint has trailing bytes: config mismatch?");
    simn->kernel_->endDrain();
    return simn;
}

void
Simulation::walk(sim::CheckpointIo &cp)
{
    sim::Tick when = eq.curTick();
    cp.field(when);
    cp.field(txnCount);
    mem_->checkpoint(cp);
    for (const auto &c : cpus_)
        c->checkpoint(cp);
    kernel_->checkpoint(cp);
    wl_->checkpoint(cp);
    if (cp.loading()) {
        // Nothing in the walk schedules an event, so the clock can
        // jump once every object holds its restored state.
        eq.restoreTick(when);
        booted = true;
    }
}

cpu::CpuStats
Simulation::totalCpuStats() const
{
    cpu::CpuStats total;
    for (const auto &c : cpus_) {
        const cpu::CpuStats &s = c->stats();
        total.instructions += s.instructions;
        total.memOps += s.memOps;
        total.branches += s.branches;
        total.mispredicts += s.mispredicts;
        total.contextSwitches += s.contextSwitches;
        total.idleTicks += s.idleTicks;
    }
    return total;
}

} // namespace core
} // namespace varsim
