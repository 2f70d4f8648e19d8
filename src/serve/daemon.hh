/**
 * @file
 * The resident `varsim serve` daemon: socket front-end over a
 * Scheduler.
 *
 * The wire model is deliberately boring: one connection, one
 * request frame, one reply (or a bounded stream for status/watch),
 * close. No connection state survives a request, so a daemon
 * restart owes clients nothing — they reconnect and the durable
 * scheduler state answers. Streams end with a `type=end` frame;
 * errors are `type=error` frames with a human message.
 *
 * Request vocabulary (all flat jsonl payloads):
 *
 *   req=ping     liveness + schema echo
 *   req=submit   a Submission (schema.hh); reply ok/error
 *   req=status   [tenant] stream of type=campaign frames + end
 *   req=info     id; one type=campaign frame
 *   req=watch    id [after]; stream of type=event frames,
 *                end frame once the campaign is terminal
 *   req=cancel   id; reply ok/error
 *   req=report   id [confidence, metric]; reply ok with the same
 *                report text `varsim campaign report` prints
 *   req=drain    finish every admitted campaign, then reply ok and
 *                shut the daemon down
 */

#ifndef VARSIM_SERVE_DAEMON_HH
#define VARSIM_SERVE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hh"
#include "serve/scheduler.hh"

namespace varsim
{

namespace ckpt
{
class CheckpointLibrary;
}

namespace serve
{

struct DaemonConfig
{
    /** Daemon root: tenants/, ckpts/ live here. */
    std::string root;

    /** Listen address. */
    Address addr;

    /** Scheduler worker threads (0 = hardware). */
    std::size_t workers = 0;
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Open <root>/ckpts (the handle that keeps `ckpt gc` out while
     * the daemon runs), resume every durable in-flight campaign,
     * bind the listen socket, and start the acceptor. False with
     * @p err on a bind failure.
     */
    bool start(std::string *err);

    /** Campaigns resumeAll() re-enqueued during start(). */
    std::size_t resumedCount() const { return resumed; }

    /** Block until a drain request or requestStop() arrives. */
    void wait();

    /**
     * Ask the daemon to exit: stops the acceptor and unblocks
     * wait(). Async-signal-unsafe (locks); call from a polling
     * loop, not a signal handler.
     */
    void requestStop();

    /**
     * Tear down: stop accepting, wait out connection handlers,
     * stop the scheduler. In-flight cells not yet recorded are
     * simply lost to the durable state and re-run on next start.
     */
    void shutdown();

    Scheduler &scheduler() { return *sched; }

  private:
    void acceptLoop();
    void handleConnection(int fd);
    void handleWatch(FrameIo &io, const std::string &id,
                     std::uint64_t after);

    DaemonConfig cfg;
    /** Held only for its shared lock on <root>/ckpts. */
    std::unique_ptr<ckpt::CheckpointLibrary> library;
    std::unique_ptr<Scheduler> sched;
    std::size_t resumed = 0;

    int listenFd = -1;
    std::thread acceptor;
    std::atomic<bool> stopping{false};

    std::mutex mu;
    std::condition_variable stopCv;
    bool stopRequested = false;

    /** Live connection handlers (detached); shutdown waits. */
    std::size_t activeConns = 0;
    std::condition_variable connsCv;
};

} // namespace serve
} // namespace varsim

#endif // VARSIM_SERVE_DAEMON_HH
