#include "serve/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "campaign/knobs.hh"
#include "sim/file_io.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace serve
{

namespace fs = std::filesystem;

namespace
{

/** The wire names of Job::State, in its order. */
const char *const kStateNames[] = {"queued", "running", "complete",
                                   "cancelled", "failed"};

/**
 * Run @p work, turning a throw into false with its message in
 * @p what. A worker must not let one escape: the pool swallows it,
 * and a job its worker left without bookkeeping never settles
 * (watchers spin, drain() hangs, the tenant's share stays inflated).
 */
template <typename Work>
bool
guarded(const char *doing, std::string &what, Work &&work)
{
    try {
        work();
        return true;
    } catch (const std::exception &e) {
        what = e.what();
    } catch (...) {
        what = std::string("unknown exception ") + doing;
    }
    return false;
}

} // anonymous namespace

Scheduler::Scheduler(const SchedulerConfig &cfg) : cfg(cfg)
{
    std::error_code ec;
    fs::create_directories(tenantsDir(), ec);
    if (ec)
        sim::fatal("cannot create %s: %s", tenantsDir().c_str(),
                   ec.message().c_str());
    pool = std::make_unique<core::HostThreadPool>(this->cfg.workers);
}

Scheduler::~Scheduler()
{
    stop();
}

void
Scheduler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopped = true;
        eventCv.notify_all(); // unblock drain()/waitEvents() waits
    }
    pool->stop();
}

std::string
Scheduler::storeDir(const std::string &id) const
{
    return tenantsDir() + "/" + id + "/store";
}

std::size_t
Scheduler::cellsExecuted() const
{
    std::lock_guard<std::mutex> lock(mu);
    return executed;
}

bool
Scheduler::submit(const Submission &sub, std::string *err)
{
    if (!validName(sub.tenant) || !validName(sub.name))
        return failWith(err, "bad tenant or campaign name");

    // Rebuild the spec through the same path the CLI uses, then
    // check the client's fingerprint echo: a mismatch means the
    // client and daemon disagree on what these fields *mean*.
    campaign::CampaignSpec spec;
    std::string why;
    if (!campaign::buildSpec(sub.fields, spec, &why))
        return failWith(err, "invalid campaign spec: " + why);
    const std::string fp = sim::format(
        "%016llx",
        static_cast<unsigned long long>(spec.fingerprint()));
    if (fp != sub.fingerprintHex)
        return failWith(
            err, sim::format(
                     "spec fingerprint mismatch: client sent %s, daemon "
                     "derives %s — client/daemon schema skew, refusing",
                     sub.fingerprintHex.c_str(), fp.c_str()));

    const std::string id = sub.id();
    const std::string payload = encodeSubmission(sub);
    // Idempotent resubmit of the same campaign is an ack; same id
    // with different fields is a conflict.
    auto readmit = [&](const Job &job) {
        return encodeSubmission(job.sub) == payload ||
               failWith(err, "campaign " + id +
                                 " already exists with different "
                                 "fields");
    };

    {
        std::lock_guard<std::mutex> lock(mu);
        if (draining)
            return failWith(err, "daemon is draining; not accepting "
                                 "new campaigns");
        const auto it = jobs.find(id);
        if (it != jobs.end())
            return readmit(*it->second);
        // One durable write per id at a time: concurrent first-time
        // submits would otherwise race temp+rename on the same file
        // and could ack an in-memory job whose on-disk record is
        // the *other* client's fields.
        if (!admitting.insert(id).second)
            return failWith(err, "campaign " + id +
                                     " is being submitted by another "
                                     "client; retry");
    }

    const std::string dir = tenantsDir() + "/" + id;
    std::error_code ec;
    fs::create_directories(dir, ec);
    // Durable before acknowledged: a kill -9 after the ack must
    // find the submission on disk to resume it.
    const bool durable =
        ec ? failWith(err,
                      "cannot create " + dir + ": " + ec.message())
           : sim::writeFileAtomic(dir, "submission.json",
                                  payload + "\n", err);

    {
        std::lock_guard<std::mutex> lock(mu);
        admitting.erase(id);
        if (!durable)
            return false;
        // resumeAll() may have admitted it from disk meanwhile.
        const auto it = jobs.find(id);
        if (it != jobs.end())
            return readmit(*it->second);
        admitLocked(sub, dir, std::move(spec));
    }
    pool->post([this] { pump(); });
    return true;
}

bool
Scheduler::cancel(const std::string &id, std::string *err)
{
    std::unique_lock<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        return failWith(err, "unknown campaign " + id);
    Job &job = *it->second;
    if (job.terminal())
        return true; // cancel is idempotent

    // Durable first: the marker is what a restarted daemon reads.
    // The two fsyncs are slow; drop mu for them (jobs are never
    // erased, so the reference stays valid) and revalidate after.
    const std::string dir = job.dir;
    lock.unlock();
    if (!sim::writeFileAtomic(dir, "cancelled",
                              std::string("cancelled\n"), err))
        return false;
    lock.lock();
    if (!job.terminal()) { // it may have ended while we wrote
        job.cancelRequested = true;
        settleLocked(job);
    }
    return true;
}

std::vector<CampaignInfo>
Scheduler::status(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<CampaignInfo> out;
    for (const auto &kv : jobs)
        if (tenant.empty() || kv.second->sub.tenant == tenant)
            out.push_back(kv.second->info());
    return out;
}

bool
Scheduler::info(const std::string &id, CampaignInfo &out) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        return false;
    out = it->second->info();
    return true;
}

CampaignInfo
Scheduler::Job::info() const
{
    CampaignInfo out;
    out.id = sub.id();
    out.state = kStateNames[static_cast<int>(state)];
    out.priority = sub.priority;
    out.recorded = recorded;
    out.target = target;
    out.inFlight = inFlight;
    out.error = error;
    return out;
}

bool
Scheduler::waitEvents(const std::string &id, std::uint64_t &cursor,
                      int timeoutMs, std::vector<Event> &out,
                      bool *terminal) const
{
    std::unique_lock<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        return false;
    const Job &job = *it->second;
    // A cursor past the end (bogus client, or state from a prior
    // daemon life) must not make terminal detection unreachable, nor
    // count events that do not exist.
    if (cursor > job.events.size())
        cursor = job.events.size();

    auto fresh = [&] {
        return job.events.size() > cursor || job.terminal();
    };
    if (timeoutMs > 0 && !fresh())
        eventCv.wait_for(lock,
                         std::chrono::milliseconds(timeoutMs),
                         fresh);

    out.clear();
    for (std::size_t i = cursor; i < job.events.size(); ++i)
        out.push_back(job.events[i]);
    cursor = job.events.size();
    if (terminal)
        *terminal = job.terminal();
    return true;
}

std::size_t
Scheduler::resumeAll()
{
    std::size_t resumed = 0;
    std::error_code ec;
    sim::JsonLine obj;
    for (const auto &tde :
         fs::directory_iterator(tenantsDir(), ec)) {
        if (!tde.is_directory())
            continue;
        for (const auto &cde :
             fs::directory_iterator(tde.path(), ec)) {
            if (!cde.is_directory())
                continue;
            const std::string dir = cde.path().string();
            std::string payload;
            if (!sim::readWholeFile(dir + "/submission.json",
                                    payload) ||
                payload.empty())
                continue;
            if (!obj.parse(std::string_view(payload).substr(
                    0, payload.find('\n')))) {
                sim::warn("serve: unparseable submission in %s, "
                          "skipping", dir.c_str());
                continue;
            }
            Submission sub;
            std::string err;
            if (!decodeSubmission(obj, sub, &err)) {
                sim::warn("serve: bad submission in %s (%s), "
                          "skipping", dir.c_str(), err.c_str());
                continue;
            }
            campaign::CampaignSpec spec;
            if (!campaign::buildSpec(sub.fields, spec, &err)) {
                sim::warn("serve: submission in %s no longer "
                          "builds (%s), skipping", dir.c_str(),
                          err.c_str());
                continue;
            }

            const bool cancelled =
                fs::exists(dir + "/cancelled");
            {
                std::lock_guard<std::mutex> lock(mu);
                if (jobs.count(sub.id()))
                    continue;
                Job &job = admitLocked(sub, dir, std::move(spec));
                if (cancelled) {
                    // Visible in status, never scheduled.
                    job.state = Job::State::Cancelled;
                    job.cancelRequested = true;
                    continue;
                }
            }
            // Re-enqueued like a fresh submission: the store knows
            // what already ran, Execution schedules only the rest,
            // and a long-finished campaign completes immediately.
            pool->post([this] { pump(); });
            ++resumed;
        }
    }
    return resumed;
}

void
Scheduler::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    draining = true;
    eventCv.wait(lock, [this] {
        // A forced shutdown aborts the drain.
        return stopped ||
               std::all_of(jobs.begin(), jobs.end(), [](const auto &kv) {
                   return kv.second->terminal();
               });
    });
}

Scheduler::Job &
Scheduler::admitLocked(const Submission &sub, const std::string &dir,
                       campaign::CampaignSpec spec)
{
    auto job = std::make_unique<Job>();
    job->sub = sub;
    job->dir = dir;
    job->spec = std::move(spec);
    job->order = nextOrder++;
    auto &tenant = tenants[sub.tenant];
    if (tenant.firstSeen == 0)
        tenant.firstSeen = job->order + 1;
    return *jobs.emplace(sub.id(), std::move(job)).first->second;
}

bool
Scheduler::jobHasWork(const Job &job) const
{
    if (job.cancelRequested)
        return false;
    if (job.state == Job::State::Queued && !job.starting)
        return true;
    return job.state == Job::State::Running && !job.frontier.empty();
}

Scheduler::Job *
Scheduler::pickJob()
{
    // Tenant first: fewest cells in flight, then fewest served,
    // then first seen — the fair share. Job within the tenant:
    // highest priority, then submission order.
    Job *best = nullptr;
    const Tenant *bestTenant = nullptr;
    for (auto &kv : jobs) {
        Job &job = *kv.second;
        if (!jobHasWork(job))
            continue;
        const Tenant &ten = tenants[job.sub.tenant];
        if (best) {
            const Tenant &bt = *bestTenant;
            if (job.sub.tenant != best->sub.tenant) {
                auto key = [](const Tenant &t) {
                    return std::make_tuple(t.inFlight, t.served,
                                           t.firstSeen);
                };
                if (key(bt) <= key(ten))
                    continue;
            } else {
                auto key = [](const Job &j) {
                    return std::make_tuple(-j.sub.priority,
                                           j.order);
                };
                if (key(*best) <= key(job))
                    continue;
            }
        }
        best = &job;
        bestTenant = &ten;
    }
    return best;
}

void
Scheduler::pump()
{
    std::unique_lock<std::mutex> lock(mu);
    Job *job = pickJob();
    if (!job)
        return; // token outlived its work (cancel, double-post)

    if (job->state == Job::State::Queued) {
        job->starting = true;
        lock.unlock();
        startJob(*job);
        return;
    }

    const campaign::Cell cell = job->frontier.front();
    job->frontier.pop_front();
    ++job->inFlight;
    ++tenants[job->sub.tenant].inFlight;
    lock.unlock();
    runCell(*job, cell);
}

void
Scheduler::startJob(Job &job)
{
    campaign::CampaignOptions opt;
    opt.hostThreads = 1; // budget pilots run inline on this worker
    opt.ckptDir = job.spec.numCheckpoints ? cfg.root + "/ckpts" : "";

    std::string err;
    auto exec = campaign::Execution::tryCreate(
        job.spec, job.dir + "/store", opt, &err);

    std::unique_lock<std::mutex> lock(mu);
    if (!exec)
        job.fail(err);
    job.starting = false;
    if (settleLocked(job))
        return;
    job.exec = std::move(exec);
    job.state = Job::State::Running;
    // Held again across the unlock, as the end-of-round path holds
    // it: starting keeps cancel() from finishing the job — and
    // freeing exec — while refillJob() walks the store outside mu.
    job.starting = true;
    lock.unlock();

    refillJob(job);
}

void
Scheduler::refillJob(Job &job)
{
    // Outside mu: recomputing decisions replays store state and may
    // contend only on the store's own mutex.
    std::vector<campaign::Cell> cells;
    std::uint64_t target = 0;
    std::uint64_t recorded = 0;
    std::string what;
    const bool ok = guarded("recomputing frontier", what, [&] {
        cells = job.exec->pendingCells();
        for (const auto &d : job.exec->decisions())
            target += d.target;
        recorded = job.exec->resultStore().totalRuns();
    });

    std::unique_lock<std::mutex> lock(mu);
    job.starting = false;
    if (ok) {
        job.target = target;
        job.recorded = recorded;
    } else {
        job.fail(what);
    }
    if (settleLocked(job))
        return;
    if (cells.empty()) {
        finishJob(job, Job::State::Complete);
        return;
    }
    job.frontier.assign(cells.begin(), cells.end());
    Event ev;
    ev.kind = "round";
    ev.recorded = recorded;
    ev.target = target;
    emit(job, ev);
    const std::size_t tokens = cells.size();
    lock.unlock();
    for (std::size_t i = 0; i < tokens; ++i)
        pool->post([this] { pump(); });
}

void
Scheduler::runCell(Job &job, const campaign::Cell &cell)
{
    campaign::RunRecord rec;
    std::string what;
    const bool ok = guarded("running cell", what, [&] {
        job.exec->prepareCell(cell);
        rec = job.exec->runCell(cell);
    });

    std::unique_lock<std::mutex> lock(mu);
    --job.inFlight;
    auto &tenant = tenants[job.sub.tenant];
    --tenant.inFlight;
    if (ok) {
        ++tenant.served;
        ++executed;
        ++job.recorded;
        Event ev;
        ev.kind = "run";
        ev.group = rec.group;
        ev.runIdx = rec.runIdx;
        ev.value = rec.cyclesPerTxn;
        ev.recorded = job.recorded;
        ev.target = job.target;
        emit(job, ev);
    } else {
        job.fail(what);
    }
    if (settleLocked(job))
        return;
    if (job.frontier.empty() && !job.held()) {
        // Last cell of the round: this worker recomputes the
        // frontier (adaptive extension or completion).
        job.starting = true;
        lock.unlock();
        refillJob(job);
    }
}

bool
Scheduler::settleLocked(Job &job)
{
    if (!job.cancelRequested && !job.failRequested)
        return false;
    job.frontier.clear();
    if (!job.terminal() && !job.held())
        finishJob(job, job.cancelRequested ? Job::State::Cancelled
                                           : Job::State::Failed);
    return true;
}

void
Scheduler::emit(Job &job, Event ev)
{
    ev.seq = job.events.size() + 1;
    ev.campaignId = job.sub.id();
    job.events.push_back(std::move(ev));
    eventCv.notify_all();
}

void
Scheduler::finishJob(Job &job, Job::State state)
{
    if (job.exec) {
        if (state == Job::State::Complete)
            job.exec->recordCkptStats();
        job.recorded = job.exec->resultStore().totalRuns();
        job.exec.reset(); // releases the store's write lock
    }
    job.state = state;
    Event ev;
    ev.kind = kStateNames[static_cast<int>(state)];
    ev.recorded = job.recorded;
    ev.target = job.target;
    ev.message = job.error;
    emit(job, ev);
}

} // namespace serve
} // namespace varsim
