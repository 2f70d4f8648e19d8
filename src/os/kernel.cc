#include "os/kernel.hh"

#include <algorithm>

#include "sim/statistics.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace os
{

Kernel::Kernel(std::string name, sim::EventQueue &eq, OsConfig config,
               std::vector<cpu::BaseCpu *> cpu_list)
    : SimObject(std::move(name), eq), cfg(config),
      cpus(std::move(cpu_list)), runQueues(cpus.size()),
      cpuDrained(cpus.size(), false)
{
    VARSIM_ASSERT(!cpus.empty(), "kernel needs at least one CPU");
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        cpus[i]->setHost(this);
        quantumEvents.push_back(
            std::make_unique<sim::EventFunctionWrapper>(
                [this, i] {
                    if (cpus[i]->isIdle())
                        return;
                    // schedctl-style postponement: never preempt a
                    // lock holder; recheck shortly after.
                    auto *t = static_cast<Thread *>(
                        cpus[i]->currentThread());
                    if (t != nullptr && t->heldLocks > 0) {
                        eventq().schedule(quantumEvents[i].get(),
                                          curTick() +
                                              cfg.quantum / 4);
                        return;
                    }
                    cpus[i]->requestPreempt();
                },
                this->name() + sim::format(".quantum%zu", i),
                sim::Event::schedulerPri));
    }
}

Kernel::~Kernel() = default;

Thread &
Kernel::addThread(std::unique_ptr<Thread> thread)
{
    VARSIM_ASSERT(thread->tid() ==
                      static_cast<sim::ThreadId>(threads.size()),
                  "thread ids must be dense and in order");
    const sim::ThreadId tid = thread->tid();
    threads.push_back(std::move(thread));
    sleepEvents.push_back(std::make_unique<sim::EventFunctionWrapper>(
        [this, tid] {
            Thread &t = this->thread(tid);
            VARSIM_ASSERT(t.state == Thread::State::Sleeping,
                          "sleep timer for non-sleeping thread %d",
                          tid);
            wake(t);
        },
        name() + sim::format(".sleep%d", tid),
        sim::Event::schedulerPri));
    return *threads.back();
}

Thread &
Kernel::thread(sim::ThreadId tid)
{
    VARSIM_ASSERT(tid >= 0 &&
                      static_cast<std::size_t>(tid) < threads.size(),
                  "bad thread id %d", tid);
    return *threads[static_cast<std::size_t>(tid)];
}

int
Kernel::createMutex(sim::Addr lock_word)
{
    mutexes.push_back(Mutex{lock_word, sim::invalidThreadId, {}});
    return static_cast<int>(mutexes.size() - 1);
}

int
Kernel::createBarrier(std::uint32_t expected)
{
    VARSIM_ASSERT(expected > 0, "barrier needs expected > 0");
    barriers.push_back(Barrier{expected, {}});
    return static_cast<int>(barriers.size() - 1);
}

void
Kernel::start()
{
    // Round-robin initial placement, then dispatch every CPU.
    std::size_t next = 0;
    for (const auto &t : threads) {
        if (t->state == Thread::State::Ready) {
            t->lastCpu = static_cast<sim::CpuId>(next);
            runQueues[next].push_back(t->tid());
            next = (next + 1) % runQueues.size();
        }
    }
    for (std::size_t i = 0; i < cpus.size(); ++i)
        dispatch(i);
}

std::size_t
Kernel::shortestQueue() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < runQueues.size(); ++i)
        if (runQueues[i].size() < runQueues[best].size())
            best = i;
    return best;
}

std::size_t
Kernel::longestQueue() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < runQueues.size(); ++i)
        if (runQueues[i].size() > runQueues[best].size())
            best = i;
    return best;
}

void
Kernel::record(SchedEvent::Kind kind, sim::CpuId cpu,
               sim::ThreadId tid)
{
    if (trace.size() < traceCap)
        trace.push_back({curTick(), cpu, tid, kind});
}

void
Kernel::enableTrace(std::size_t cap)
{
    traceCap = cap;
    trace.clear();
    trace.reserve(std::min<std::size_t>(cap, 1u << 20));
}

void
Kernel::armQuantum(std::size_t cpu_idx)
{
    // The quantum runs from when the thread starts executing, i.e.
    // after the context-switch latency — otherwise a quantum shorter
    // than the switch cost would preempt threads before they run.
    eventq().reschedule(quantumEvents[cpu_idx].get(),
                        curTick() + cfg.ctxSwitchCost +
                            cfg.quantum);
}

void
Kernel::cancelQuantum(std::size_t cpu_idx)
{
    if (quantumEvents[cpu_idx]->scheduled())
        eventq().deschedule(quantumEvents[cpu_idx].get());
}

void
Kernel::enqueue(Thread &t, bool allow_migrate)
{
    std::size_t target =
        t.lastCpu != sim::invalidCpuId
            ? static_cast<std::size_t>(t.lastCpu)
            : shortestQueue();
    if (allow_migrate) {
        const std::size_t shortest = shortestQueue();
        if (runQueues[target].size() >
            runQueues[shortest].size() + cfg.migrateThreshold) {
            target = shortest;
            ++stats_.migrations;
        }
    }
    t.state = Thread::State::Ready;
    runQueues[target].push_back(t.tid());
    if (!draining_ && cpus[target]->isIdle())
        dispatch(target);
}

void
Kernel::dispatch(std::size_t cpu_idx)
{
    if (draining_) {
        // The previous thread just blocked/yielded/finished while a
        // drain is in progress: no new work may start, so this CPU
        // is quiescent now.
        cpus[cpu_idx]->setIdle();
        cancelQuantum(cpu_idx);
        cpuDrained[cpu_idx] = true;
        return;
    }

    sim::ThreadId tid = sim::invalidThreadId;
    if (!runQueues[cpu_idx].empty()) {
        tid = runQueues[cpu_idx].front();
        runQueues[cpu_idx].pop_front();
    } else if (cfg.workStealing) {
        const std::size_t victim = longestQueue();
        if (victim != cpu_idx && !runQueues[victim].empty()) {
            tid = runQueues[victim].back();
            runQueues[victim].pop_back();
            ++stats_.steals;
        }
    }

    if (tid == sim::invalidThreadId) {
        cancelQuantum(cpu_idx);
        cpus[cpu_idx]->setIdle();
        return;
    }

    Thread &t = thread(tid);
    VARSIM_ASSERT(t.state == Thread::State::Ready,
                  "dispatching thread %d in state %d", tid,
                  int(t.state));
    t.state = Thread::State::Running;
    t.lastCpu = static_cast<sim::CpuId>(cpu_idx);
    ++stats_.dispatches;
    record(SchedEvent::Kind::Dispatch,
           static_cast<sim::CpuId>(cpu_idx), tid);
    DPRINTF(Sched, "dispatch t%d on cpu%zu", tid, cpu_idx);
    cpus[cpu_idx]->runThread(&t, cfg.ctxSwitchCost);
    armQuantum(cpu_idx);
}

void
Kernel::wake(Thread &t)
{
    record(SchedEvent::Kind::Wakeup, t.lastCpu, t.tid());
    enqueue(t, true);
}

void
Kernel::preempted(cpu::BaseCpu &cpu)
{
    auto *t = static_cast<Thread *>(cpu.currentThread());
    VARSIM_ASSERT(t != nullptr, "preempt on idle cpu");
    ++stats_.preemptions;
    record(SchedEvent::Kind::Preempt, cpu.cpuId(), t->tid());
    // Preempted threads requeue locally (no migration) behind any
    // already-ready work, plain round-robin.
    enqueue(*t, false);
    dispatch(static_cast<std::size_t>(cpu.cpuId()));
}

void
Kernel::syscall(cpu::BaseCpu &cpu, cpu::ThreadContext &tc,
                const cpu::Op &op)
{
    auto &t = static_cast<Thread &>(tc);
    switch (op.kind) {
      case cpu::OpKind::Lock:
        doLock(cpu, t, op);
        return;
      case cpu::OpKind::Unlock:
        doUnlock(cpu, t, op);
        return;
      case cpu::OpKind::Barrier:
        doBarrier(cpu, t, op);
        return;
      case cpu::OpKind::Sleep:
        doSleep(cpu, t, op);
        return;
      case cpu::OpKind::TxnEnd:
        t.stream().advance();
        ++t.txnsCompleted;
        ++stats_.transactions;
        if (txnSink != nullptr) {
            txnSink->transactionCompleted(t.tid(), op.id, curTick());
        }
        cpu.continueThread(0);
        return;
      case cpu::OpKind::Yield:
        t.stream().advance();
        enqueue(t, true);
        dispatch(static_cast<std::size_t>(cpu.cpuId()));
        return;
      case cpu::OpKind::End:
        t.state = Thread::State::Finished;
        ++numFinished;
        record(SchedEvent::Kind::Finish, cpu.cpuId(), t.tid());
        dispatch(static_cast<std::size_t>(cpu.cpuId()));
        return;
      default:
        sim::panic("kernel: unexpected syscall op kind %d",
                   int(op.kind));
    }
}

void
Kernel::doLock(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op)
{
    VARSIM_ASSERT(op.id >= 0 &&
                      static_cast<std::size_t>(op.id) <
                          mutexes.size(),
                  "bad mutex id %d", op.id);
    Mutex &m = mutexes[static_cast<std::size_t>(op.id)];
    if (m.owner == sim::invalidThreadId || m.owner == t.tid()) {
        // Free, or handed off to us while we slept.
        m.owner = t.tid();
        ++t.heldLocks;
        ++stats_.lockAcquires;
        t.stream().advance();
        cpu.continueThread(cfg.syscallCost);
        return;
    }
    // Contended. Adaptive policy (Solaris): while the owner is
    // running on some CPU it will release soon — spin by retrying
    // the Lock op (including its lock-word RMW: real spin traffic).
    // If the owner is not running, sleep in FIFO order. Either way
    // the stream is NOT advanced; the Lock op re-executes.
    if (cfg.spinRetryNs > 0 &&
        thread(m.owner).state == Thread::State::Running) {
        ++stats_.lockSpins;
        cpu.continueThread(cfg.spinRetryNs);
        return;
    }
    ++stats_.contendedLocks;
    ++t.lockBlocks;
    t.state = Thread::State::Blocked;
    m.waiters.push_back(t.tid());
    record(SchedEvent::Kind::Block, cpu.cpuId(), t.tid());
    DPRINTF(Mutex, "t%d blocks on mutex %d (owner t%d)", t.tid(),
            op.id, m.owner);
    dispatch(static_cast<std::size_t>(cpu.cpuId()));
}

void
Kernel::doUnlock(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op)
{
    VARSIM_ASSERT(op.id >= 0 &&
                      static_cast<std::size_t>(op.id) <
                          mutexes.size(),
                  "bad mutex id %d", op.id);
    Mutex &m = mutexes[static_cast<std::size_t>(op.id)];
    VARSIM_ASSERT(m.owner == t.tid(),
                  "t%d unlocks mutex %d owned by t%d", t.tid(),
                  op.id, m.owner);
    --t.heldLocks;
    t.stream().advance();
    // Competitive (Solaris-style) release: the lock becomes free and
    // the first sleeper is woken to *retry*. A running thread that
    // reaches the lock first wins the race — direct handoff would
    // convoy the lock behind the waiter's dispatch latency. This is
    // also one of the paper's divergence mechanisms: "locks may be
    // acquired in different orders" (Section 2.1).
    m.owner = sim::invalidThreadId;
    if (!m.waiters.empty()) {
        const sim::ThreadId next = m.waiters.front();
        m.waiters.pop_front();
        wake(thread(next));
    }
    cpu.continueThread(cfg.syscallCost);
}

void
Kernel::doBarrier(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op)
{
    VARSIM_ASSERT(op.id >= 0 &&
                      static_cast<std::size_t>(op.id) <
                          barriers.size(),
                  "bad barrier id %d", op.id);
    Barrier &b = barriers[static_cast<std::size_t>(op.id)];
    t.stream().advance();
    if (b.waiting.size() + 1 == b.expected) {
        // Last arriver: release everyone.
        ++stats_.barrierEpisodes;
        std::vector<sim::ThreadId> released = std::move(b.waiting);
        b.waiting.clear();
        for (sim::ThreadId w : released)
            wake(thread(w));
        cpu.continueThread(cfg.syscallCost);
        return;
    }
    b.waiting.push_back(t.tid());
    t.state = Thread::State::Blocked;
    record(SchedEvent::Kind::Block, cpu.cpuId(), t.tid());
    dispatch(static_cast<std::size_t>(cpu.cpuId()));
}

void
Kernel::doSleep(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op)
{
    t.stream().advance();
    t.state = Thread::State::Sleeping;
    t.sleepUntil = curTick() + op.count;
    eventq().reschedule(
        sleepEvents[static_cast<std::size_t>(t.tid())].get(),
        t.sleepUntil);
    dispatch(static_cast<std::size_t>(cpu.cpuId()));
}

void
Kernel::beginDrain()
{
    draining_ = true;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        cancelQuantum(i);
        cpuDrained[i] = cpus[i]->isIdle();
    }
    // Park sleep timers; sleepUntil is absolute and survives.
    for (const auto &ev : sleepEvents)
        if (ev->scheduled())
            eventq().deschedule(ev.get());
}

void
Kernel::drained(cpu::BaseCpu &cpu)
{
    cpuDrained[static_cast<std::size_t>(cpu.cpuId())] = true;
}

bool
Kernel::fullyDrained() const
{
    return std::all_of(cpuDrained.begin(), cpuDrained.end(),
                       [](bool d) { return d; });
}

void
Kernel::endDrain()
{
    draining_ = false;
    std::fill(cpuDrained.begin(), cpuDrained.end(), false);
    // Re-arm sleepers.
    for (const auto &tptr : threads) {
        Thread &t = *tptr;
        if (t.state != Thread::State::Sleeping)
            continue;
        if (t.sleepUntil <= curTick()) {
            wake(t);
        } else {
            eventq().reschedule(
                sleepEvents[static_cast<std::size_t>(t.tid())].get(),
                t.sleepUntil);
        }
    }
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        if (cpus[i]->currentThread() != nullptr) {
            armQuantum(i);
            cpus[i]->resumeFromDrain();
        } else {
            dispatch(i);
        }
    }
}

void
Kernel::checkpoint(sim::CheckpointIo &cp)
{
    // Which thread sits on each CPU.
    std::vector<sim::ThreadId> running(cpus.size());
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        const auto *t =
            static_cast<const Thread *>(cpus[i]->currentThread());
        running[i] = t != nullptr ? t->tid() : sim::invalidThreadId;
        cp.field(running[i]);
    }
    for (auto &q : runQueues)
        cp.elements(q, [&](sim::ThreadId &tid) { cp.field(tid); });
    std::size_t nm = mutexes.size();
    cp.field(nm);
    VARSIM_ASSERT(nm == mutexes.size(),
                  "checkpoint mutex count mismatch");
    for (auto &m : mutexes) {
        cp.field(m.lockWord);
        cp.field(m.owner);
        cp.field(m.waiters);
    }
    std::size_t nb = barriers.size();
    cp.field(nb);
    VARSIM_ASSERT(nb == barriers.size(),
                  "checkpoint barrier count mismatch");
    for (auto &b : barriers) {
        cp.field(b.expected);
        cp.field(b.waiting);
    }
    for (const auto &t : threads)
        t->checkpoint(cp);
    cp.field(numFinished);
    cp.field(stats_);

    if (cp.loading()) {
        // Re-attach running threads; execution restarts at
        // endDrain().
        draining_ = true;
        for (std::size_t i = 0; i < cpus.size(); ++i) {
            cpuDrained[i] = true;
            cpus[i]->attachThread(running[i] != sim::invalidThreadId
                                      ? &thread(running[i])
                                      : nullptr);
        }
    } else {
        VARSIM_ASSERT(fullyDrained(), "kernel checkpoint while running");
    }
}

void
Kernel::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".dispatches", &stats_.dispatches);
    r.regScalar(n + ".preemptions", &stats_.preemptions);
    r.regScalar(n + ".migrations", &stats_.migrations);
    r.regScalar(n + ".steals", &stats_.steals);
    r.regScalar(n + ".lock_acquires", &stats_.lockAcquires);
    r.regScalar(n + ".contended_locks", &stats_.contendedLocks);
    r.regScalar(n + ".lock_spins", &stats_.lockSpins);
    r.regScalar(n + ".barrier_episodes", &stats_.barrierEpisodes);
    r.regScalar(n + ".transactions", &stats_.transactions);
    r.regFormula(n + ".lock_contention",
                 [this] {
                     const double acq = static_cast<double>(
                         stats_.lockAcquires);
                     return acq > 0.0
                                ? static_cast<double>(
                                      stats_.contendedLocks) /
                                      acq
                                : 0.0;
                 },
                 "fraction of lock acquires that contended");
}

} // namespace os
} // namespace varsim
