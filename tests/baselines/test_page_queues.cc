/**
 * @file
 * Seeded randomized differentials of the reactive baselines' dense
 * page queues against the node-based containers they replace:
 * RunLru against std::list + unordered_map (UM's old per-page LRU,
 * touched page by page), PageRing against std::deque (IAL's old FIFO).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <stdexcept>
#include <vector>

#include "baselines/page_queues.hh"
#include "support/ref_um_lru.hh"

namespace sentinel::baselines {
namespace {

using sentinel::testing::ListLru;

constexpr mem::PageId kSeam = 1ull << 16; ///< a directory chunk seam

/** Pop @p n pages of @p lru's front run, which must match @p ref's
 *  next @p n pages. */
void
popAndCompare(RunLru &lru, ListLru &ref, std::uint64_t max,
              std::uint64_t n)
{
    ASSERT_FALSE(lru.empty());
    const mem::PageRun run = lru.front(max);
    ASSERT_GE(run.count, 1u);
    ASSERT_LE(run.count, max);
    n = std::min(n, run.count);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(run.first + i, ref.popFront()) << "page " << i;
    lru.popFront(n);
}

void
drainAndCompare(RunLru &lru, ListLru &ref, std::mt19937_64 &rng)
{
    while (!ref.empty()) {
        const std::uint64_t max = 1 + rng() % 64;
        popAndCompare(lru, ref, max, max);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_TRUE(lru.empty());
}

TEST(RunLru, RandomizedDifferentialAgainstListLru)
{
    // Runs start around the 2^16-page directory chunk seam, so many
    // cross it, with a few far runs in other chunks (past 2^32).
    const mem::PageId far[] = { 3, 5 * kSeam + 7, (1ull << 34) + 11 };

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        auto first = [&] {
            if (rng() % 16 == 0)
                return far[rng() % 3];
            return kSeam - 48 + rng() % 96;
        };
        auto length = [&] {
            return 1 + rng() % (rng() % 4 == 0 ? 40 : 6);
        };
        RunLru lru;
        ListLru ref;
        std::vector<mem::PageRun> recent; // candidates for exact re-touch
        auto touch = [&](mem::PageRun run) {
            lru.touch(run);
            ref.touch(run);
            if (recent.size() < 16)
                recent.push_back(run);
            else
                recent[rng() % recent.size()] = run;
        };
        for (int round = 0; round < 6; ++round) {
            for (int op = 0; op < 3000; ++op) {
                const std::uint64_t r = rng() % 100;
                if (r < 30) { // a run, overlapping others or not
                    touch({ first(), length() });
                } else if (r < 45 && !recent.empty()) {
                    // The exact run of an earlier touch, its record
                    // whole or not.
                    touch(recent[rng() % recent.size()]);
                } else if (r < 50 && !ref.empty()) { // from a queued page
                    touch({ ref.pick(rng()), length() });
                } else if (r < 55 && !ref.empty()) { // the tail page
                    touch({ ref.back(), 1 });
                } else if (r < 67 && !ref.empty()) { // erase, present
                    mem::PageId p = ref.pick(rng());
                    lru.erase(p);
                    ref.erase(p);
                } else if (r < 75) { // erase, often absent
                    mem::PageId p = first() + rng() % 40;
                    lru.erase(p);
                    ref.erase(p);
                } else if (!ref.empty()) { // a bounded pop
                    popAndCompare(lru, ref, 1 + rng() % 8,
                                  1 + rng() % 8);
                    ASSERT_FALSE(::testing::Test::HasFailure())
                        << "seed " << seed << " round " << round
                        << " op " << op;
                }
                ASSERT_EQ(lru.empty(), ref.empty());
            }
            drainAndCompare(lru, ref, rng);
            ASSERT_FALSE(::testing::Test::HasFailure())
                << "seed " << seed << " round " << round;
        }
    }
}

TEST(RunLru, EraseRangeMatchesPerPageErase)
{
    // The same touches and pops on two queues, one erasing runs with
    // eraseRange() and one page by page with erase(), and on the
    // per-page reference: every front()/popFront() must agree.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        auto first = [&]() -> mem::PageId {
            if (rng() % 16 == 0)
                return (1ull << 34) + rng() % 64;
            return kSeam - 48 + rng() % 96;
        };
        auto length = [&] { return 1 + rng() % (rng() % 4 == 0 ? 40 : 6); };
        RunLru by_run, by_page;
        ListLru ref;
        auto pop = [&](std::uint64_t max, std::uint64_t n) {
            const mem::PageRun a = by_run.front(max);
            const mem::PageRun b = by_page.front(max);
            ASSERT_EQ(a.first, b.first);
            ASSERT_EQ(a.count, b.count);
            n = std::min(n, a.count);
            for (std::uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(a.first + i, ref.popFront()) << "page " << i;
            by_run.popFront(n);
            by_page.popFront(n);
        };
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t r = rng() % 100;
            if (r < 45) {
                const mem::PageRun run{ first(), length() };
                by_run.touch(run);
                by_page.touch(run);
                ref.touch(run);
            } else if (r < 75) { // a run over queued and absent pages
                const mem::PageRun run{ first(), length() };
                by_run.eraseRange(run);
                for (mem::PageId p = run.first; p < run.endPage(); ++p) {
                    by_page.erase(p);
                    ref.erase(p);
                }
            } else if (!ref.empty()) {
                pop(1 + rng() % 8, 1 + rng() % 8);
                ASSERT_FALSE(::testing::Test::HasFailure())
                    << "seed " << seed << " op " << op;
            }
            ASSERT_EQ(by_run.empty(), ref.empty());
            ASSERT_EQ(by_page.empty(), ref.empty());
            ASSERT_EQ(by_run.poolSize(), by_page.poolSize());
        }
        while (!ref.empty()) {
            pop(64, 64);
            ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
        }
        EXPECT_TRUE(by_run.empty());
        EXPECT_TRUE(by_page.empty());
    }
}

TEST(RunLru, EmptiedListRefills)
{
    RunLru lru;
    ListLru ref;
    lru.touch({ 7, 1 });
    lru.erase(7);
    EXPECT_TRUE(lru.empty());
    lru.erase(7); // absent: no effect
    lru.touch({ 9, 1 });
    lru.touch({ 7, 1 });
    lru.touch({ 9, 1 }); // re-touch moves it behind 7
    ref.touch(7);
    ref.touch(9);
    popAndCompare(lru, ref, 8, 8);
    popAndCompare(lru, ref, 8, 8);
    EXPECT_TRUE(lru.empty());
}

TEST(RunLru, PoolStopsGrowingOnceDrainedAndRefilled)
{
    // Overlapping runs across the seam: each touch claims a record and
    // retires the ones it empties.  A drained queue's records all go
    // back to the free list, so refills of the same shape reuse them.
    RunLru lru;
    auto fill = [&](mem::PageId base) {
        for (mem::PageId i = 0; i < 50; ++i)
            lru.touch({ base + 3 * i, 5 });
        lru.erase(base + 20);
        lru.touch({ base + 30, 40 });
    };
    auto drain = [&] {
        while (!lru.empty())
            lru.popFront(lru.front(7).count);
    };
    fill(kSeam - 70);
    drain();
    const std::size_t high = lru.poolSize();
    EXPECT_GT(high, 0u);
    for (mem::PageId shift = 1; shift <= 5; ++shift) {
        fill(kSeam - 70 + 7 * shift);
        drain();
        EXPECT_EQ(lru.poolSize(), high) << "refill " << shift;
    }
}

TEST(RunLru, PopFrontPastTheFrontRunPanics)
{
    RunLru lru;
    lru.touch({ 10, 6 });
    lru.touch({ 13, 3 }); // pages 13..15 now belong to the newer record
    const mem::PageRun run = lru.front(8);
    EXPECT_EQ(run.first, 10u);
    EXPECT_EQ(run.count, 3u);
    EXPECT_THROW(lru.popFront(run.count + 2), std::logic_error);
}

TEST(PageRing, GrowthWhileWrappedKeepsFifoOrder)
{
    PageRing ring;
    std::deque<mem::PageId> ref;
    // Fill the first 64-slot buffer, pop a few so the head moves, then
    // wrap the tail around slot 0 and overflow the buffer.
    for (mem::PageId p = 0; p < 64; ++p) {
        ring.pushBack(p);
        ref.push_back(p);
    }
    for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(ring.popFront(), ref.front());
        ref.pop_front();
    }
    for (mem::PageId p = 100; p < 111; ++p) { // 10 wrap, 1 grows
        ring.pushBack(p);
        ref.push_back(p);
    }
    while (!ref.empty()) {
        ASSERT_EQ(ring.popFront(), ref.front());
        ref.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(PageRing, RandomizedDifferentialAgainstDeque)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        PageRing ring;
        std::deque<mem::PageId> ref;
        for (int op = 0; op < 40000; ++op) {
            // Alternate push-heavy and pop-heavy phases so the ring
            // grows with its head anywhere in the buffer.
            const bool filling = (op / 700) % 3 != 2;
            if (rng() % 100 < (filling ? 65u : 30u)) {
                mem::PageId p = rng() % (1ull << 20);
                ring.pushBack(p);
                ref.push_back(p);
            } else if (!ref.empty()) {
                ASSERT_EQ(ring.popFront(), ref.front())
                    << "seed " << seed << " op " << op;
                ref.pop_front();
            }
            ASSERT_EQ(ring.empty(), ref.empty());
        }
        while (!ref.empty()) {
            ASSERT_EQ(ring.popFront(), ref.front());
            ref.pop_front();
        }
        EXPECT_TRUE(ring.empty());
    }
}

} // namespace
} // namespace sentinel::baselines
