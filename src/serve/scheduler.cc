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
    auto fail = [&](std::string msg) {
        if (err)
            *err = std::move(msg);
        return false;
    };

    if (!validName(sub.tenant) || !validName(sub.name))
        return fail("bad tenant or campaign name");

    // Rebuild the spec through the same path the CLI uses, then
    // check the client's fingerprint echo: a mismatch means the
    // client and daemon disagree on what these fields *mean*.
    campaign::CampaignSpec spec;
    std::string why;
    if (!campaign::buildSpec(sub.fields, spec, &why))
        return fail("invalid campaign spec: " + why);
    const std::string fp = sim::format(
        "%016llx",
        static_cast<unsigned long long>(spec.fingerprint()));
    if (fp != sub.fingerprintHex)
        return fail(sim::format(
            "spec fingerprint mismatch: client sent %s, daemon "
            "derives %s — client/daemon schema skew, refusing",
            sub.fingerprintHex.c_str(), fp.c_str()));

    const std::string id = sub.id();
    const std::string payload = encodeSubmission(sub);

    {
        std::lock_guard<std::mutex> lock(mu);
        if (draining)
            return fail("daemon is draining; not accepting new "
                        "campaigns");
        const auto it = jobs.find(id);
        if (it != jobs.end()) {
            // Idempotent resubmit of the same campaign is an ack;
            // same id with different fields is a conflict.
            if (encodeSubmission(it->second->sub) == payload)
                return true;
            return fail("campaign " + id +
                        " already exists with different fields");
        }
        // One durable write per id at a time: concurrent first-time
        // submits would otherwise race temp+rename on the same file
        // and could ack an in-memory job whose on-disk record is
        // the *other* client's fields.
        if (!admitting.insert(id).second)
            return fail("campaign " + id +
                        " is being submitted by another client; "
                        "retry");
    }
    auto unadmit = [&] {
        std::lock_guard<std::mutex> lock(mu);
        admitting.erase(id);
    };

    const std::string dir = tenantsDir() + "/" + id;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        unadmit();
        return fail("cannot create " + dir + ": " + ec.message());
    }
    // Durable before acknowledged: a kill -9 after the ack must
    // find the submission on disk to resume it.
    if (!sim::writeFileAtomic(dir, "submission.json", payload + "\n",
                              err)) {
        unadmit();
        return false;
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        admitting.erase(id);
        const auto it = jobs.find(id);
        if (it != jobs.end()) {
            // resumeAll() admitted it from disk meanwhile; ack only
            // if what it admitted is what this client sent.
            if (encodeSubmission(it->second->sub) == payload)
                return true;
            return fail("campaign " + id +
                        " already exists with different fields");
        }
        auto job = std::make_unique<Job>();
        job->sub = sub;
        job->dir = dir;
        job->spec = std::move(spec);
        job->order = nextOrder++;
        auto &tenant = tenants[sub.tenant];
        if (tenant.firstSeen == 0)
            tenant.firstSeen = job->order + 1;
        jobs.emplace(id, std::move(job));
    }
    pool->post([this] { pump(); });
    return true;
}

bool
Scheduler::cancel(const std::string &id, std::string *err)
{
    std::unique_lock<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
        if (err)
            *err = "unknown campaign " + id;
        return false;
    }
    Job &job = *it->second;
    if (job.state == "complete" || job.state == "cancelled" ||
        job.state == "failed")
        return true; // terminal already; cancel is idempotent

    // Durable first: the marker is what a restarted daemon reads.
    // The two fsyncs are slow; drop mu for them (jobs are never
    // erased, so the reference stays valid) and revalidate after.
    const std::string dir = job.dir;
    lock.unlock();
    std::string werr;
    if (!sim::writeFileAtomic(dir, "cancelled",
                              std::string("cancelled\n"), &werr)) {
        if (err)
            *err = werr;
        return false;
    }
    lock.lock();
    if (job.state == "complete" || job.state == "cancelled" ||
        job.state == "failed")
        return true; // reached terminal while we were writing
    job.cancelRequested = true;
    job.frontier.clear();
    if (job.inFlight == 0 && !job.starting)
        finishJob(job, "cancelled", "");
    return true;
}

std::vector<CampaignInfo>
Scheduler::status(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<CampaignInfo> out;
    for (const auto &kv : jobs) {
        const Job &job = *kv.second;
        if (!tenant.empty() && job.sub.tenant != tenant)
            continue;
        CampaignInfo info;
        info.id = kv.first;
        info.state = job.state;
        info.priority = job.sub.priority;
        info.recorded = job.recorded;
        info.target = job.target;
        info.inFlight = job.inFlight;
        info.error = job.error;
        out.push_back(std::move(info));
    }
    return out;
}

bool
Scheduler::info(const std::string &id, CampaignInfo &out) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        return false;
    const Job &job = *it->second;
    out.id = id;
    out.state = job.state;
    out.priority = job.sub.priority;
    out.recorded = job.recorded;
    out.target = job.target;
    out.inFlight = job.inFlight;
    out.error = job.error;
    return true;
}

bool
Scheduler::waitEvents(const std::string &id,
                      std::uint64_t afterSeq, int timeoutMs,
                      std::vector<Event> &out,
                      bool *terminal) const
{
    std::unique_lock<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        return false;
    const Job &job = *it->second;
    // A cursor past the end (bogus client, or state from a prior
    // daemon life) must not make terminal detection unreachable.
    if (afterSeq > job.events.size())
        afterSeq = job.events.size();

    auto fresh = [&] {
        return job.events.size() > afterSeq ||
               job.state == "complete" ||
               job.state == "cancelled" || job.state == "failed";
    };
    if (timeoutMs > 0 && !fresh())
        eventCv.wait_for(lock,
                         std::chrono::milliseconds(timeoutMs),
                         fresh);

    out.clear();
    for (std::size_t i = afterSeq; i < job.events.size(); ++i)
        out.push_back(job.events[i]);
    if (terminal)
        *terminal = (job.state == "complete" ||
                     job.state == "cancelled" ||
                     job.state == "failed") &&
                    afterSeq + out.size() == job.events.size();
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

            const std::string id = sub.id();
            const bool cancelled =
                fs::exists(dir + "/cancelled");
            {
                std::lock_guard<std::mutex> lock(mu);
                if (jobs.count(id))
                    continue;
                auto job = std::make_unique<Job>();
                job->sub = sub;
                job->dir = dir;
                job->spec = std::move(spec);
                job->order = nextOrder++;
                auto &tenant = tenants[sub.tenant];
                if (tenant.firstSeen == 0)
                    tenant.firstSeen = job->order + 1;
                if (cancelled) {
                    // Visible in status, never scheduled.
                    job->state = "cancelled";
                    job->cancelRequested = true;
                    jobs.emplace(id, std::move(job));
                    continue;
                }
                jobs.emplace(id, std::move(job));
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
        if (stopped)
            return true; // forced shutdown aborts the drain
        for (const auto &kv : jobs) {
            const std::string &s = kv.second->state;
            if (s != "complete" && s != "cancelled" &&
                s != "failed")
                return false;
        }
        return true;
    });
}

bool
Scheduler::jobHasWork(const Job &job) const
{
    if (job.cancelRequested)
        return false;
    if (job.state == "queued" && !job.starting)
        return true;
    return job.state == "running" && !job.frontier.empty();
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

    if (job->state == "queued") {
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
    if (job.cancelRequested) {
        job.starting = false;
        finishJob(job, "cancelled", "");
        return;
    }
    if (!exec) {
        job.starting = false;
        finishJob(job, "failed", err);
        return;
    }
    job.exec = std::move(exec);
    job.state = "running";
    // starting stays true across the unlock: it is what keeps
    // cancel() from finishJob()ing — and freeing exec — while
    // refillJob() walks the store outside mu. refillJob clears it
    // under mu, as the end-of-round path does.
    lock.unlock();

    refillJob(job);
}

void
Scheduler::refillJob(Job &job)
{
    // Outside mu: recomputing decisions replays store state and may
    // contend only on the store's own mutex. An escaped exception
    // would leave starting=true forever (the pool swallows it), so
    // convert throws into a terminal failed state.
    std::vector<campaign::Cell> cells;
    std::uint64_t target = 0;
    std::uint64_t recorded = 0;
    try {
        cells = job.exec->pendingCells();
        for (const auto &d : job.exec->decisions())
            target += d.target;
        recorded = job.exec->resultStore().totalRuns();
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(mu);
        job.starting = false;
        failJob(job, e.what());
        return;
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        job.starting = false;
        failJob(job, "unknown exception recomputing frontier");
        return;
    }

    std::unique_lock<std::mutex> lock(mu);
    job.starting = false;
    job.target = target;
    job.recorded = recorded;
    if (job.cancelRequested) {
        finishJob(job, "cancelled", "");
        return;
    }
    if (cells.empty()) {
        finishJob(job, "complete", "");
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
    // An exception here must still run the bookkeeping below:
    // the pool swallows throws, and a job with phantom inFlight
    // never terminates (watchers spin, drain() hangs) while its
    // tenant's fair share stays inflated.
    campaign::RunRecord rec;
    bool threw = false;
    std::string what;
    try {
        job.exec->prepareCell(cell);
        rec = job.exec->runCell(cell);
    } catch (const std::exception &e) {
        threw = true;
        what = e.what();
    } catch (...) {
        threw = true;
        what = "unknown exception running cell";
    }

    std::unique_lock<std::mutex> lock(mu);
    --job.inFlight;
    auto &tenant = tenants[job.sub.tenant];
    --tenant.inFlight;
    if (threw) {
        failJob(job, what);
        return;
    }
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

    if (job.cancelRequested) {
        if (job.inFlight == 0 && !job.starting)
            finishJob(job, "cancelled", "");
        return;
    }
    if (job.failRequested) {
        // Another worker's cell threw; the last one out fails the
        // job with that first error.
        if (job.inFlight == 0 && !job.starting)
            finishJob(job, "failed", job.error);
        return;
    }
    if (job.frontier.empty() && job.inFlight == 0 &&
        !job.starting && job.state == "running") {
        // Last cell of the round: this worker recomputes the
        // frontier (adaptive extension or completion).
        job.starting = true;
        lock.unlock();
        refillJob(job);
    }
}

void
Scheduler::emit(Job &job, Event ev)
{
    ev.seq = job.events.size() + 1;
    ev.campaignId = job.sub.tenant + "/" + job.sub.name;
    job.events.push_back(std::move(ev));
    eventCv.notify_all();
}

void
Scheduler::failJob(Job &job, const std::string &what)
{
    job.frontier.clear();
    if (job.error.empty())
        job.error = what;
    job.failRequested = true;
    if (job.inFlight == 0 && !job.starting)
        finishJob(job,
                  job.cancelRequested ? "cancelled" : "failed",
                  job.error);
}

void
Scheduler::finishJob(Job &job, const std::string &state,
                     const std::string &error)
{
    if (job.exec) {
        if (state == "complete")
            job.exec->recordCkptStats();
        job.recorded = job.exec->resultStore().totalRuns();
        job.exec.reset(); // releases the store's write lock
    }
    job.state = state;
    job.error = error;
    Event ev;
    ev.kind = state;
    ev.recorded = job.recorded;
    ev.target = job.target;
    ev.message = error;
    emit(job, ev);
    eventCv.notify_all();
}

} // namespace serve
} // namespace varsim
