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
            // A per-page erase may split a record that one run erase
            // only trims, so it can need more records, never fewer.
            ASSERT_LE(by_run.poolSize(), by_page.poolSize());
        }
        while (!ref.empty()) {
            pop(64, 64);
            ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
        }
        EXPECT_TRUE(by_run.empty());
        EXPECT_TRUE(by_page.empty());
    }
}

/** A RunLru and its per-page reference, driven together. */
struct LruPair {
    RunLru lru;
    ListLru ref;

    void
    touch(mem::PageRun run)
    {
        lru.touch(run);
        ref.touch(run);
    }

    void
    eraseRange(mem::PageRun run)
    {
        lru.eraseRange(run);
        for (mem::PageId p = run.first; p < run.endPage(); ++p)
            ref.erase(p);
    }

    /** Pop the front run, which must be exactly @p want. */
    void
    expectFront(mem::PageRun want)
    {
        ASSERT_FALSE(lru.empty());
        const mem::PageRun run = lru.front(1ull << 20);
        ASSERT_EQ(run.first, want.first);
        ASSERT_EQ(run.count, want.count);
        popAndCompare(lru, ref, run.count, run.count);
    }
};

TEST(RunLru, RecordAcrossTheSeamIsTrimmedByTouchAndErase)
{
    // The first two cuts start before a seam, inside a record that
    // crosses it, and end past the record's end: a walk that went on
    // from the chunk's end instead of the record's would meet the cut
    // record's stale ids past the seam.
    LruPair q;
    q.touch({ kSeam - 10, 20 });       // A: [seam - 10, seam + 10)
    q.touch({ kSeam + 12, 4 });        // B, next chunk
    q.touch({ 2 * kSeam - 8, 16 });    // C: [2 seam - 8, 2 seam + 8)
    q.touch({ 2 * kSeam + 10, 2 });    // D, next chunk
    q.touch({ kSeam - 4, 20 });        // trims A's tail, drops B
    q.eraseRange({ 2 * kSeam - 3, 20 }); // trims C's tail, drops D
    q.touch({ 2 * kSeam - 20, 14 });   // trims C's head
    q.expectFront({ kSeam - 10, 6 });
    q.expectFront({ 2 * kSeam - 6, 3 });
    q.expectFront({ kSeam - 4, 20 });
    q.expectFront({ 2 * kSeam - 20, 14 });
    EXPECT_TRUE(q.lru.empty());
}

TEST(RunLru, SplitKeepsBothSidesAtTheRecordsPosition)
{
    // Record A = [100, 120) between an older X and a newer Y.  A run
    // inside A splits it; its two sides stay at A's position, head
    // side first, whichever of them moved to a new record.  Later
    // touches and erases inside each side then find the right record.
    for (const bool head_smaller : { true, false }) {
        SCOPED_TRACE(head_smaller ? "head side smaller"
                                  : "tail side smaller");
        LruPair q;
        q.touch({ 10, 2 });   // X
        q.touch({ 100, 20 }); // A
        q.touch({ 200, 2 });  // Y
        const mem::PageRun cut =
            head_smaller ? mem::PageRun{ 103, 4 } : mem::PageRun{ 114, 3 };
        q.touch(cut);
        const mem::PageRun head{ 100, cut.first - 100 };
        const mem::PageRun tail{ cut.endPage(), 120 - cut.endPage() };
        q.touch({ head.first + 1, 1 });     // inside the head side
        q.eraseRange({ tail.first + 1, 1 }); // inside the tail side
        q.expectFront({ 10, 2 });
        q.expectFront({ head.first, 1 });
        q.expectFront({ head.first + 2, head.count - 2 });
        q.expectFront({ tail.first, 1 });
        q.expectFront({ tail.first + 2, tail.count - 2 });
        q.expectFront({ 200, 2 });
        q.expectFront(cut);
        q.expectFront({ head.first + 1, 1 });
        EXPECT_TRUE(q.lru.empty());
    }
}

TEST(RunLru, TouchFromARecordsFirstPageGrowsIt)
{
    // A run that starts at a record's first page and covers it whole
    // takes that record over, across the seam and over the records
    // and unqueued pages past its end; the exact re-touch is the case
    // with nothing past it.
    LruPair q;
    q.touch({ kSeam - 4, 8 });  // A: [seam - 4, seam + 4)
    q.touch({ kSeam + 6, 3 });  // B: [seam + 6, seam + 9)
    q.touch({ kSeam + 20, 2 }); // C
    q.touch({ kSeam - 4, 8 });  // A again, now behind C
    q.touch({ kSeam - 4, 12 }); // A grows over a gap and B's head
    q.eraseRange({ kSeam + 2, 1 }); // inside the grown A
    q.touch({ kSeam + 20, 2 });     // C again
    q.expectFront({ kSeam + 8, 1 });
    q.expectFront({ kSeam - 4, 6 });
    q.expectFront({ kSeam + 3, 5 });
    q.expectFront({ kSeam + 20, 2 });
    EXPECT_TRUE(q.lru.empty());
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
