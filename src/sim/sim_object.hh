/**
 * @file
 * Base class for simulated components.
 *
 * A SimObject knows its name and the event queue of the simulation it
 * belongs to. There is deliberately no global state: several
 * simulations run concurrently on host threads during a
 * multiple-simulation experiment (Section 5 of the paper), so every
 * component references its own simulation's queue.
 */

#ifndef VARSIM_SIM_SIM_OBJECT_HH
#define VARSIM_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/eventq.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace varsim
{
namespace sim
{

namespace statistics
{
class Registry;
}

/**
 * Common base for every simulated hardware or software component.
 */
class SimObject : public Serializable
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : name_(std::move(name)), eventq_(&eq)
    {}

    ~SimObject() override = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Hierarchical instance name, e.g. "system.cpu3.l2". */
    const std::string &name() const { return name_; }

    /** The simulation's event queue. */
    EventQueue &eventq() { return *eventq_; }

    /** Current simulated time. */
    Tick curTick() const { return eventq_->curTick(); }

    /** Schedule @p ev at absolute tick @p when. */
    void schedule(Event &ev, Tick when) { eventq_->schedule(&ev, when); }

    /** Schedule @p ev @p delta ticks from now. */
    void
    scheduleIn(Event &ev, Tick delta)
    {
        eventq_->schedule(&ev, curTick() + delta);
    }

    /** Deschedule a pending event. */
    void deschedule(Event &ev) { eventq_->deschedule(&ev); }

    /**
     * Schedule a one-shot callable @p delta ticks from now. The event
     * object comes from the queue's recycled pool (allocation-free in
     * steady state); use member Event objects instead for recurring
     * or cancellable work.
     */
    template <typename F>
    void
    callIn(Tick delta, F &&fn,
           Event::Priority pri = Event::defaultPri)
    {
        eventq_->callAt(curTick() + delta, std::forward<F>(fn), pri);
    }

    /**
     * Cancel recurring events so the system can reach a quiescent,
     * checkpointable state. Default: nothing.
     */
    virtual void drain() {}

    /**
     * Register this component's statistics (counters, formulas,
     * distributions) under its hierarchical name. Called once after
     * construction; the registry samples nothing until dumped, so
     * registering never perturbs simulated timing. Default: no
     * statistics.
     */
    virtual void regStats(statistics::Registry &) {}

    /** Default: a stateless component checkpoints nothing. */
    void checkpoint(CheckpointIo &) override {}

  private:
    std::string name_;
    EventQueue *eventq_;
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_SIM_OBJECT_HH
