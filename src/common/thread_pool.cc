#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/logging.hh"

namespace sentinel {

ThreadPool::ThreadPool(unsigned threads)
{
    threads = std::max(1u, threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        queue_.push_back(std::move(task));
        ++unfinished_;
    }
    cv_task_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return unfinished_ == 0; });
    if (first_error_) {
        std::exception_ptr err = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lk(mu_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (--unfinished_ == 0)
                cv_done_.notify_all();
        }
    }
}

unsigned
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    std::size_t threads =
        std::min<std::size_t>(n, jobs <= 1 ? 1 : static_cast<std::size_t>(jobs));
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Each index's log lines are held back and written in index order,
    // as the inline loop would, whatever the interleaving.  A worker
    // whose fn threw keeps its redirect but logs nothing before the
    // next index sets its own, and logs outlives the pool.
    std::vector<std::string> logs(n);
    ThreadPool pool(static_cast<unsigned>(threads));
    std::atomic<std::size_t> next{0};
    for (std::size_t t = 0; t < threads; ++t) {
        pool.submit([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                redirectLog(&logs[i]);
                fn(i);
                redirectLog(nullptr);
            }
        });
    }
    std::exception_ptr error;
    try {
        pool.wait();
    } catch (...) {
        error = std::current_exception();
    }
    for (const std::string &log : logs)
        emitLog(log);
    if (error)
        std::rethrow_exception(error);
}

} // namespace sentinel
