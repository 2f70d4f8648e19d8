#include "core/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <memory>

#include "sim/logging.hh"

namespace varsim
{
namespace core
{

namespace
{

std::size_t
resolveWorkers(std::size_t workers)
{
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    return workers == 0 ? 1 : workers;
}

/**
 * One parallelFor call, shared by the caller and its helpers. A
 * helper that starts after the batch drained finds no index left and
 * never touches the job, so it may outlive the call.
 */
struct Batch
{
    const std::function<void(std::size_t)> *job = nullptr;
    std::size_t count = 0;

    std::mutex mu;
    std::condition_variable idle; ///< caller: no job running
    std::size_t next = 0;
    std::size_t running = 0;
    std::exception_ptr firstError;

    /** Claim and run indices until none are left. */
    void
    work()
    {
        std::unique_lock<std::mutex> lk(mu);
        while (next < count) {
            const std::size_t i = next++;
            ++running;
            lk.unlock();
            std::exception_ptr err;
            try {
                (*job)(i);
            } catch (...) {
                err = std::current_exception();
            }
            lk.lock();
            --running;
            if (err) {
                if (!firstError)
                    firstError = err;
                next = count; // cancel unclaimed indices
            }
        }
        if (running == 0)
            idle.notify_all();
    }
};

} // anonymous namespace

HostThreadPool &
HostThreadPool::instance()
{
    static HostThreadPool *const pool = new HostThreadPool;
    return *pool;
}

HostThreadPool::HostThreadPool(std::size_t workers)
{
    std::lock_guard<std::mutex> lk(mu);
    ensureWorkers(resolveWorkers(workers));
}

HostThreadPool::~HostThreadPool()
{
    stop();
}

void
HostThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (stopping)
            return;
        queue.push_back(std::move(task));
    }
    wake.notify_one();
}

void
HostThreadPool::stop()
{
    std::vector<std::thread> exiting;
    std::deque<std::function<void()>> discarded;
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
        discarded.swap(queue);
        exiting.swap(threads);
    }
    wake.notify_all();
    for (std::thread &t : exiting)
        t.join();
}

std::size_t
HostThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lk(mu);
    return threads.size();
}

void
HostThreadPool::ensureWorkers(std::size_t count)
{
    while (!stopping && threads.size() < count)
        threads.emplace_back([this] { workerMain(); });
}

void
HostThreadPool::parallelFor(
    std::size_t n, std::size_t max_workers,
    const std::function<void(std::size_t)> &fn)
{
    const std::size_t workers =
        std::min(resolveWorkers(max_workers), n);
    if (workers <= 1) {
        // Inline: no pool traffic, exceptions propagate directly.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->job = &fn;
    batch->count = n;
    {
        std::lock_guard<std::mutex> lk(mu);
        ensureWorkers(workers - 1);
    }
    for (std::size_t w = 1; w < workers; ++w)
        post([batch] { batch->work(); });

    // The caller is a full participant.
    batch->work();

    std::unique_lock<std::mutex> lk(batch->mu);
    batch->idle.wait(lk, [&] { return batch->running == 0; });
    if (batch->firstError)
        std::rethrow_exception(batch->firstError);
}

void
HostThreadPool::workerMain()
{
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        wake.wait(lk, [this] { return stopping || !queue.empty(); });
        if (stopping)
            return;
        std::function<void()> task = std::move(queue.front());
        queue.pop_front();
        lk.unlock();
        try {
            task();
        } catch (const std::exception &e) {
            sim::warn("host pool: task failed: %s", e.what());
        } catch (...) {
            sim::warn("host pool: task failed with a non-standard "
                      "exception");
        }
        task = nullptr; // release captures outside the lock
        lk.lock();
    }
}

} // namespace core
} // namespace varsim
