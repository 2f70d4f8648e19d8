/**
 * @file
 * The host executor: worker threads draining a FIFO of posted
 * tasks, with indexed batches (parallelFor) built on top.
 *
 * Two kinds of caller share it. Multi-run experiments and campaign
 * rounds hand the process-wide instance() batches of indexed runs,
 * so sweeps that batch in a loop reuse the same threads. The serve
 * scheduler owns a pool of fixed size and posts it *tokens*: each
 * token asks the scheduler for the globally best next cell at the
 * moment it runs (late binding), which keeps fair-share admission
 * accurate under completion-order churn.
 *
 * Semantics:
 *  - post(task) queues @p task; workers start tasks in FIFO order.
 *    A task that throws is swallowed with a warning and its worker
 *    lives on: one tenant's failure must not take down the executor.
 *    Tasks may post tasks.
 *  - stop() stops accepting and discards queued tasks; running tasks
 *    complete. It returns once every worker has exited, and later
 *    posts are silently dropped. Idempotent; the destructor calls it.
 *  - parallelFor(n, max_workers, job) runs job(0..n-1) on at most
 *    max_workers threads (0 = hardware concurrency). The caller
 *    claims indices itself and posts max_workers-1 helpers that claim
 *    beside it, so a single-worker batch runs inline with no
 *    synchronization, and a job may itself call parallelFor: if no
 *    worker is free, the caller runs its whole batch alone. Job order
 *    across threads is unspecified; callers key results by index
 *    (all of core/experiment does). The first job exception cancels
 *    the unclaimed indices and is rethrown on the caller once the
 *    in-flight jobs finish; the pool stays usable.
 *  - instance() starts with no threads, grows to the largest batch
 *    asked of it, and is never destroyed. A process that exits
 *    therefore never joins pool threads, which matters in a forked
 *    death-test child: it has none of its parent's threads.
 */

#ifndef VARSIM_CORE_THREAD_POOL_HH
#define VARSIM_CORE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace varsim
{
namespace core
{

class HostThreadPool
{
  public:
    /** The process-wide pool. */
    static HostThreadPool &instance();

    /** Start @p workers threads (0 = hardware concurrency). */
    explicit HostThreadPool(std::size_t workers);

    ~HostThreadPool();

    HostThreadPool(const HostThreadPool &) = delete;
    HostThreadPool &operator=(const HostThreadPool &) = delete;

    /** Queue @p task for some worker, FIFO. */
    void post(std::function<void()> task);

    /** Discard queued tasks, let running ones finish, join. */
    void stop();

    /**
     * Run @p job(i) for i in [0, n) on at most @p max_workers host
     * threads (0 = hardware concurrency). Returns when every claimed
     * job has finished; rethrows the first job exception.
     */
    void parallelFor(std::size_t n, std::size_t max_workers,
                     const std::function<void(std::size_t)> &job);

    /** Pool threads currently alive (tests/diagnostics). */
    std::size_t workerCount() const;

  private:
    HostThreadPool() = default;

    /** Grow the pool to @p count threads; requires mu held. */
    void ensureWorkers(std::size_t count);

    void workerMain();

    mutable std::mutex mu;
    std::condition_variable wake; ///< workers: task posted / stop
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> threads;
    bool stopping = false;
};

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_THREAD_POOL_HH
