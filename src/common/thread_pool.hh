/**
 * @file
 * A small fixed-size worker pool for the experiment harness.
 *
 * The simulator itself is single-threaded by design (one simulated
 * clock); parallelism lives one level up, where independent (model,
 * policy, batch) experiment cells fan out across cores.  The pool is
 * deliberately minimal: submit void() tasks, wait for quiescence,
 * rethrow the first captured exception on wait().
 */

#ifndef SENTINEL_COMMON_THREAD_POOL_HH
#define SENTINEL_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sentinel {

class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue (via wait()) before joining the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception any task raised (if any).
     */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Hardware concurrency, clamped to >= 1. */
    static unsigned defaultJobs();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_task_; ///< signals queued work / shutdown
    std::condition_variable cv_done_; ///< signals quiescence
    std::size_t unfinished_ = 0;      ///< queued + running tasks
    bool stop_ = false;
    std::exception_ptr first_error_;
};

/**
 * Run fn(i) for every i in [0, n), using up to @p jobs worker threads.
 * jobs <= 1 runs inline on the calling thread (no pool, no overhead).
 * Results must be written to per-index slots by @p fn; indices are
 * claimed atomically, so outputs are deterministic regardless of the
 * interleaving.  So are the log lines: each index's are written in
 * index order once every fn has finished.  The first exception thrown
 * by any fn is rethrown.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace sentinel

#endif // SENTINEL_COMMON_THREAD_POOL_HH
