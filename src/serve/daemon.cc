#include "serve/daemon.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "campaign/engine.hh"
#include "campaign/store.hh"
#include "ckpt/library.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace serve
{

namespace
{

std::string
errorFrame(const std::string &message)
{
    sim::JsonWriter w;
    w.field("type", std::string("error"));
    w.field("message", message);
    return w.str();
}

std::string
endFrame(std::uint64_t count, const std::string &state = "")
{
    sim::JsonWriter w;
    w.field("type", std::string("end"));
    w.field("count", count);
    // Watch streams carry the campaign's terminal state: a
    // subscriber whose cursor is already past the terminal event
    // receives no events, so the end frame is its only proof the
    // campaign actually finished (vs a daemon drain cutting in).
    if (!state.empty())
        w.field("state", state);
    return w.str();
}

/** Split and validate a "tenant/name" campaign id. */
bool
parseId(const std::string &id, std::string *err)
{
    const auto slash = id.find('/');
    if (slash != std::string::npos &&
        validName(id.substr(0, slash)) &&
        validName(id.substr(slash + 1)))
        return true;
    return failWith(err, "bad campaign id '" + id +
                             "' (want <tenant>/<name>)");
}

} // anonymous namespace

Daemon::Daemon(const DaemonConfig &cfg) : cfg(cfg) {}

Daemon::~Daemon()
{
    shutdown();
}

bool
Daemon::start(std::string *err)
{
    // Held for the daemon's life as the library's gc lock: `varsim
    // ckpt gc` refuses while the daemon runs, so a campaign's own
    // open of the library never meets gc's exclusive lock.
    library = ckpt::CheckpointLibrary::open(cfg.root + "/ckpts");

    SchedulerConfig sc;
    sc.root = cfg.root;
    sc.workers = cfg.workers;
    sched = std::make_unique<Scheduler>(sc);

    // Resume before listening: by the time a client can reconnect,
    // every durable in-flight campaign is already re-enqueued.
    resumed = sched->resumeAll();

    listenFd = listenOn(cfg.addr, err);
    if (listenFd < 0)
        return false;
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
Daemon::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    stopCv.wait(lock, [this] { return stopRequested; });
}

void
Daemon::requestStop()
{
    std::lock_guard<std::mutex> lock(mu);
    stopRequested = true;
    stopCv.notify_all();
}

void
Daemon::shutdown()
{
    if (stopping.exchange(true))
        return;
    requestStop();
    if (listenFd >= 0)
        ::shutdown(listenFd, SHUT_RDWR); // unblocks accept()
    if (acceptor.joinable())
        acceptor.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    // Stop the scheduler before waiting out handlers: a handler
    // blocked in drain() is released by the stop, watch streams
    // poll `stopping` at 250 ms, and short requests bound
    // themselves with recv timeouts.
    if (sched)
        sched->stop();
    {
        std::unique_lock<std::mutex> lock(mu);
        connsCv.wait(lock, [this] { return activeConns == 0; });
    }
}

void
Daemon::acceptLoop()
{
    while (!stopping.load()) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (!stopping.load())
                sim::warn("serve: accept failed: %s",
                          std::strerror(errno));
            break;
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            if (stopping.load()) {
                ::close(fd);
                break;
            }
            ++activeConns;
        }
        std::thread([this, fd] {
            handleConnection(fd);
            std::lock_guard<std::mutex> lock(mu);
            if (--activeConns == 0)
                connsCv.notify_all();
        }).detach();
    }
}

void
Daemon::handleConnection(int fd)
{
    FrameIo io(fd); // owns fd
    io.setRecvTimeout(10000);

    std::string payload;
    if (!io.recv(payload))
        return; // client vanished; nothing owed
    sim::JsonLine obj;
    if (!obj.parse(payload)) {
        io.send(errorFrame("unparseable request payload"));
        return;
    }
    const std::string req = obj.str("req");
    std::string err;

    if (req == "ping") {
        sim::JsonWriter w;
        w.field("type", std::string("ok"));
        w.field("server", std::string("varsim-serve"));
        w.field("schema",
                static_cast<std::uint64_t>(kSchemaVersion));
        io.send(w.str());
        return;
    }

    if (req == "submit") {
        Submission sub;
        if (!decodeSubmission(obj, sub, &err) ||
            !sched->submit(sub, &err)) {
            io.send(errorFrame(err));
            return;
        }
        sim::JsonWriter w;
        w.field("type", std::string("ok"));
        w.field("id", sub.id());
        io.send(w.str());
        return;
    }

    if (req == "status") {
        const std::vector<CampaignInfo> infos =
            sched->status(obj.str("tenant"));
        for (const CampaignInfo &info : infos)
            if (!io.send(encodeInfo(info)))
                return;
        io.send(endFrame(infos.size()));
        return;
    }

    if (req == "info" || req == "watch" || req == "cancel" ||
        req == "report") {
        const std::string id = obj.str("id");
        if (!parseId(id, &err)) {
            io.send(errorFrame(err));
            return;
        }
        CampaignInfo info;
        if (!sched->info(id, info)) {
            io.send(errorFrame("unknown campaign " + id));
            return;
        }
        if (req == "info") {
            io.send(encodeInfo(info));
            return;
        }
        if (req == "watch") {
            handleWatch(io, id, obj.num("after"));
            return;
        }
        if (req == "cancel") {
            if (!sched->cancel(id, &err))
                io.send(errorFrame(err));
            else
                io.send("{\"type\": \"ok\"}");
            return;
        }
        // report: render through the same code path as `varsim
        // campaign report`. The read-only store open takes no lock,
        // so this works even while the campaign is running. A
        // confidence outside (0, 1) (NaN included), which the t
        // quantile would abort on, and a campaign that has no store
        // yet answer with an error, not the CLI's fatal.
        const double confidence = obj.real("confidence", 0.95);
        if (!(confidence > 0.0 && confidence < 1.0)) {
            io.send(errorFrame(sim::format(
                "confidence must be in (0, 1), got %g", confidence)));
            return;
        }
        const std::string dir = sched->storeDir(id);
        if (!campaign::ResultStore::exists(dir)) {
            io.send(errorFrame("campaign " + id + " is " + info.state +
                               " and has no results to report"));
            return;
        }
        const std::string metric = obj.str("metric");
        const campaign::CampaignReport rep =
            metric.empty()
                ? campaign::campaignReport(dir, confidence)
                : campaign::campaignMetricReport(dir, metric,
                                                 confidence);
        sim::JsonWriter w;
        w.field("type", std::string("ok"));
        w.field("text", rep.text);
        io.send(w.str());
        return;
    }

    if (req == "drain") {
        sched->drain();
        io.send("{\"type\": \"ok\"}");
        requestStop();
        return;
    }

    io.send(errorFrame("unknown request '" + req + "'"));
}

void
Daemon::handleWatch(FrameIo &io, const std::string &id,
                    std::uint64_t after)
{
    for (;;) {
        std::vector<Event> events;
        bool terminal = false;
        if (!sched->waitEvents(id, after, 250, events,
                               &terminal)) {
            io.send(errorFrame("unknown campaign " + id));
            return;
        }
        for (const Event &ev : events)
            if (!io.send(encodeEvent(ev)))
                return; // subscriber vanished
        if (terminal || stopping.load()) {
            CampaignInfo info;
            const std::string state =
                terminal && sched->info(id, info) ? info.state
                                                  : "";
            io.send(endFrame(after, state));
            return;
        }
    }
}

} // namespace serve
} // namespace varsim
