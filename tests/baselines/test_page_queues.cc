/**
 * @file
 * Seeded randomized differentials of the reactive baselines' dense
 * page queues against the node-based containers they replace:
 * PageLru against std::list + unordered_map (UM's old LRU), PageRing
 * against std::deque (IAL's old FIFO).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <iterator>
#include <list>
#include <random>
#include <unordered_map>
#include <vector>

#include "baselines/page_queues.hh"

namespace sentinel::baselines {
namespace {

/** The std::list + iterator-map LRU UM kept before PageLru. */
class ListLru
{
  public:
    bool empty() const { return order_.empty(); }
    mem::PageId back() const { return order_.back(); }

    void
    touch(mem::PageId p)
    {
        auto it = pos_.find(p);
        if (it != pos_.end()) {
            order_.splice(order_.end(), order_, it->second);
            return;
        }
        order_.push_back(p);
        pos_[p] = std::prev(order_.end());
    }

    void
    erase(mem::PageId p)
    {
        auto it = pos_.find(p);
        if (it != pos_.end()) {
            order_.erase(it->second);
            pos_.erase(it);
        }
    }

    mem::PageId
    popFront()
    {
        mem::PageId p = order_.front();
        order_.pop_front();
        pos_.erase(p);
        return p;
    }

    /** Some queued page, chosen by @p r. */
    mem::PageId
    pick(std::uint64_t r) const
    {
        auto it = order_.begin();
        std::advance(it, r % order_.size());
        return *it;
    }

  private:
    std::list<mem::PageId> order_;
    std::unordered_map<mem::PageId, std::list<mem::PageId>::iterator>
        pos_;
};

void
drainAndCompare(PageLru &lru, ListLru &ref)
{
    std::vector<mem::PageId> got, want;
    while (!ref.empty()) {
        ASSERT_FALSE(lru.empty());
        want.push_back(ref.popFront());
        got.push_back(lru.popFront());
    }
    EXPECT_TRUE(lru.empty());
    EXPECT_EQ(got, want);
}

TEST(PageLru, RandomizedDifferentialAgainstListLru)
{
    // Page ids straddle the 2^16-page directory chunk seam, with a few
    // far ids in other chunks (up to the largest id a link can hold).
    constexpr mem::PageId kSeam = 1ull << 16;
    const mem::PageId far[] = { 3, 5 * kSeam + 7, (1ull << 32) - 2 };

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        auto page = [&] {
            if (rng() % 16 == 0)
                return far[rng() % 3];
            return kSeam - 48 + rng() % 96;
        };
        PageLru lru;
        ListLru ref;
        for (int round = 0; round < 6; ++round) {
            for (int op = 0; op < 3000; ++op) {
                const std::uint64_t r = rng() % 100;
                if (r < 35) { // touch a page, new or not
                    mem::PageId p = page();
                    lru.touch(p);
                    ref.touch(p);
                } else if (r < 50 && !ref.empty()) { // re-touch one
                    mem::PageId p = ref.pick(rng());
                    lru.touch(p);
                    ref.touch(p);
                } else if (r < 55 && !ref.empty()) { // touch the tail
                    mem::PageId p = ref.back();
                    lru.touch(p);
                    ref.touch(p);
                } else if (r < 70 && !ref.empty()) { // erase, present
                    mem::PageId p = ref.pick(rng());
                    lru.erase(p);
                    ref.erase(p);
                } else if (r < 80) { // erase, often absent
                    mem::PageId p = page();
                    lru.erase(p);
                    ref.erase(p);
                } else if (!ref.empty()) {
                    ASSERT_FALSE(lru.empty());
                    ASSERT_EQ(lru.popFront(), ref.popFront())
                        << "seed " << seed << " round " << round
                        << " op " << op;
                }
                ASSERT_EQ(lru.empty(), ref.empty());
            }
            drainAndCompare(lru, ref);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(PageLru, EmptiedListRefills)
{
    PageLru lru;
    lru.touch(7);
    lru.erase(7);
    EXPECT_TRUE(lru.empty());
    lru.erase(7); // absent: no effect
    lru.touch(9);
    lru.touch(7);
    lru.touch(9); // re-touch moves it behind 7
    EXPECT_EQ(lru.popFront(), 7u);
    EXPECT_EQ(lru.popFront(), 9u);
    EXPECT_TRUE(lru.empty());
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
