#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace sentinel {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitRethrowsFirstException)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&completed] { ++completed; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: a subsequent round is clean.
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 11);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must still run everything.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, VisitsEachIndexExactlyOnce)
{
    const std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    parallelFor(n, 4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, InlineWhenSingleJob)
{
    // jobs <= 1 must run on the calling thread, in order.
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{ 0, 1, 2, 3, 4 }));
}

TEST(ParallelFor, ZeroIterationsIsNoop)
{
    bool ran = false;
    parallelFor(0, 8, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, DeterministicOutputSlots)
{
    // The contract the harness relies on: per-index output slots give
    // identical results for any job count.
    const std::size_t n = 64;
    auto work = [](std::size_t i) {
        return static_cast<int>(i * i + 7);
    };
    std::vector<int> serial(n), parallel(n);
    parallelFor(n, 1, [&](std::size_t i) { serial[i] = work(i); });
    parallelFor(n, 8, [&](std::size_t i) { parallel[i] = work(i); });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, PropagatesException)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, LogLinesComeOutInIndexOrder)
{
    // Later indices finish first, yet every index's warn lines reach
    // the caller's log in index order, as the inline loop writes them;
    // a nested loop's lines stay inside its index.  The lines of an
    // index whose fn threw are kept too.
    auto run = [](int jobs) {
        std::string lines;
        std::string *outer = redirectLog(&lines);
        parallelFor(8, jobs, [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
            SENTINEL_WARN("cell %zu", i);
            parallelFor(2, jobs, [&](std::size_t j) {
                SENTINEL_WARN("cell %zu.%zu", i, j);
            });
        });
        EXPECT_THROW(parallelFor(3, jobs,
                                 [](std::size_t i) {
                                     if (i == 1)
                                         SENTINEL_FATAL("cell %zu", i);
                                 }),
                     std::runtime_error);
        redirectLog(outer);
        return lines;
    };
    const std::string serial = run(1);
    EXPECT_EQ(serial.rfind("warn: cell 0\nwarn: cell 0.0\nwarn: cell 0.1\n"
                           "warn: cell 1\n",
                           0),
              0u);
    EXPECT_NE(serial.find("fatal: cell 1"), std::string::npos);
    EXPECT_EQ(run(4), serial);
}

} // namespace
} // namespace sentinel
