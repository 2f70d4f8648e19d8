/**
 * @file
 * Multi-tenant campaign scheduler for the serve daemon.
 *
 * One Scheduler owns a fixed-size HostThreadPool and a map of
 * jobs, one per submitted campaign, each backed by a
 * campaign::Execution — the same machinery `varsim campaign run`
 * uses, which is what makes a served campaign's records
 * bit-identical to the CLI's.
 *
 * Admission is fair-share across tenants, priority within a tenant:
 * when a worker asks for its next unit of work, the scheduler picks
 * the tenant with the fewest cells in flight (ties: fewest cells
 * served so far, then first-seen), and within that tenant the
 * highest-priority submission (ties: submission order). Workers run
 * *tokens* — each token claims the globally best unit at the moment
 * it executes, so a finished cell immediately frees capacity for
 * whichever tenant is furthest behind, not for whoever happened to
 * post after it.
 *
 * Kill-safety: a submission is durably recorded (submission.json,
 * temp+rename) before it is acknowledged, every run record lands in
 * the campaign's fsync'd ResultStore before the progress event
 * fires, and cancellation drops a durable marker file. After a
 * kill -9, resumeAll() rebuilds every non-terminal campaign from
 * those files and the idempotent store replay; at most the cells in
 * flight at the kill are re-run, with identical seeds and records.
 */

#ifndef VARSIM_SERVE_SCHEDULER_HH
#define VARSIM_SERVE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "campaign/exec.hh"
#include "core/thread_pool.hh"
#include "serve/schema.hh"

namespace varsim
{
namespace serve
{

struct SchedulerConfig
{
    /**
     * Daemon root: tenants/ and ckpts/ live here. Every campaign
     * that plans checkpoints opens its own handle on <root>/ckpts.
     */
    std::string root;

    /** Worker threads running campaign cells (0 = hardware). */
    std::size_t workers = 0;
};

class Scheduler
{
  public:
    explicit Scheduler(const SchedulerConfig &cfg);
    ~Scheduler(); ///< stop(), discarding undispatched work

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit @p sub: rebuild its spec via campaign::buildSpec,
     * verify the client's fingerprint echo, durably record the
     * submission, and enqueue it. Returns false with @p err on a
     * bad spec, fingerprint skew, a duplicate id with different
     * fields, or a draining scheduler. A duplicate id with
     * identical fields re-attaches (idempotent resubmit).
     */
    bool submit(const Submission &sub, std::string *err);

    /**
     * Cancel campaign @p id. Durable (a marker file survives
     * restart); in-flight cells finish and record, undispatched
     * cells are dropped. False when the id is unknown.
     */
    bool cancel(const std::string &id, std::string *err);

    /** Scheduler-eye view; @p tenant empty = all tenants. */
    std::vector<CampaignInfo>
    status(const std::string &tenant = "") const;

    /** Info for one campaign id; false when unknown. */
    bool info(const std::string &id, CampaignInfo &out) const;

    /**
     * Copy campaign @p id's events with seq > @p cursor into @p out,
     * blocking up to @p timeoutMs for the first new one (0 = no
     * wait), and leave @p cursor at the last event's seq. A cursor
     * past the end is clamped to it first. Returns false when the id
     * is unknown. @p terminal is set when the campaign has reached a
     * terminal state AND every event up to it has been returned.
     */
    bool waitEvents(const std::string &id, std::uint64_t &cursor,
                    int timeoutMs, std::vector<Event> &out,
                    bool *terminal) const;

    /**
     * Scan <root>/tenants/ * / * /submission.json and re-enqueue
     * every campaign without a terminal marker. Returns the number
     * of campaigns resumed. Call once, before serving.
     */
    std::size_t resumeAll();

    /**
     * Graceful drain: refuse new submissions, then block until
     * every admitted campaign reaches a terminal state.
     */
    void drain();

    /** Stop workers; undispatched cells are simply not run (the
     *  durable state re-schedules them on the next start). */
    void stop();

    /** Directory of campaign @p id's result store. */
    std::string storeDir(const std::string &id) const;

    /** Total cells executed since construction (tests/bench). */
    std::size_t cellsExecuted() const;

  private:
    struct Job
    {
        /** Queued, running, then a terminal state (these last). */
        enum class State { Queued, Running, Complete, Cancelled, Failed };

        Submission sub;
        std::string dir; ///< <root>/tenants/<tenant>/<name>
        campaign::CampaignSpec spec;

        State state = State::Queued;
        std::string error; ///< the first failure, kept to the end

        std::unique_ptr<campaign::Execution> exec;
        std::deque<campaign::Cell> frontier;
        std::size_t inFlight = 0;
        /** A start or refill runs outside mu. */
        bool starting = false;
        bool cancelRequested = false;
        /** A cell, start or refill failed. */
        bool failRequested = false;

        std::uint64_t recorded = 0;
        std::uint64_t target = 0;

        std::vector<Event> events;
        std::uint64_t order = 0; ///< admission order (FIFO ties)

        bool terminal() const { return state >= State::Complete; }

        /** A worker holds a piece of the job outside mu. */
        bool held() const { return inFlight != 0 || starting; }

        /** Ask for a failed end; the first error is its message. */
        void
        fail(const std::string &what)
        {
            if (error.empty())
                error = what;
            failRequested = true;
        }

        /** The scheduler-eye view status replies carry. */
        CampaignInfo info() const;
    };

    struct Tenant
    {
        std::size_t inFlight = 0;
        std::size_t served = 0;
        std::uint64_t firstSeen = 0;
    };

    /** One worker token: claim and run the best unit of work. */
    void pump();

    /** Pick the next job to advance; nullptr when none. mu held. */
    Job *pickJob();

    /** Run one cell of @p job (outside mu); bookkeeping inside. */
    void runCell(Job &job, const campaign::Cell &cell);

    /** Start @p job: build Execution, compute first frontier. */
    void startJob(Job &job);

    /** Recompute the frontier after a round drains. mu held out. */
    void refillJob(Job &job);

    /**
     * The settle rule, the one way a job ends on request: a job
     * with a cancel or failure request dispatches nothing more, and
     * once no worker holds it, it moves to that terminal state (a
     * cancel wins; the first error stays the message). Returns
     * true when the job is ending. mu held.
     */
    bool settleLocked(Job &job);

    /** Create the job for @p sub and count its tenant. mu held. */
    Job &admitLocked(const Submission &sub, const std::string &dir,
                     campaign::CampaignSpec spec);

    /** Append an event + notify watchers. mu held. */
    void emit(Job &job, Event ev);

    /** Enter a terminal state. mu held. */
    void finishJob(Job &job, Job::State state);

    bool jobHasWork(const Job &job) const;

    std::string tenantsDir() const { return cfg.root + "/tenants"; }

    SchedulerConfig cfg;
    std::unique_ptr<core::HostThreadPool> pool;

    mutable std::mutex mu;
    mutable std::condition_variable eventCv; ///< events/terminals
    std::map<std::string, std::unique_ptr<Job>> jobs; ///< by id
    /** Ids whose durable submission write is in progress; a second
     *  submit of the same id is refused until it settles, so the
     *  file on disk always matches the job that was admitted. */
    std::set<std::string> admitting;
    std::map<std::string, Tenant> tenants;
    std::uint64_t nextOrder = 0;
    std::size_t executed = 0;
    bool draining = false;
    bool stopped = false; ///< stop() called; aborts drain() waits
};

} // namespace serve
} // namespace varsim

#endif // VARSIM_SERVE_SCHEDULER_HH
