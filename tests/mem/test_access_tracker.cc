#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/arena.hh"
#include "dataflow/placement.hh"
#include "mem/access_tracker.hh"
#include "support/ref_access_tracker.hh"

namespace sentinel::mem {
namespace {

/** The per-page counts of @p t, keyed by page. */
std::map<PageId, std::pair<std::uint64_t, std::uint64_t>>
perPage(const AccessTracker &t)
{
    std::map<PageId, std::pair<std::uint64_t, std::uint64_t>> out;
    for (const PageRunCounts &run : t.pageCounts())
        for (PageId p = run.first; p < run.endPage(); ++p)
            out[p] = { run.reads, run.writes };
    return out;
}

TEST(AccessTracker, ReadsAndWritesSeparate)
{
    AccessTracker t;
    t.onAccess({ 7, 1 }, false, 3);
    t.onAccess({ 7, 1 }, true, 2);
    const auto runs = t.pageCounts();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].first, 7u);
    EXPECT_EQ(runs[0].count, 1u);
    EXPECT_EQ(runs[0].reads, 3u);
    EXPECT_EQ(runs[0].writes, 2u);
    EXPECT_EQ(runs[0].total(), 5u);
}

TEST(AccessTracker, FaultCostScalesWithCount)
{
    AccessTracker t;
    EXPECT_EQ(t.onAccess({ 1, 1 }, false, 10),
              10 * AccessTracker::kFaultCost);
    EXPECT_EQ(t.totalFaults(), 10u);
}

TEST(AccessTracker, CountsOutliveTheirRun)
{
    // A page accessed again later (its address reused by another
    // tensor) sums both runs' accesses.
    AccessTracker t;
    t.onAccess({ 4, 1 }, false);
    t.onAccess({ 2, 4 }, false);
    const auto counts = perPage(t);
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts.at(2).first, 1u);
    EXPECT_EQ(counts.at(4).first, 2u);
    EXPECT_EQ(counts.at(5).first, 1u);
}

TEST(AccessTracker, RunChargesOneFaultPerPage)
{
    AccessTracker t;
    EXPECT_EQ(t.onAccess({ 10, 4 }, true, 3),
              4 * 3 * AccessTracker::kFaultCost);
    EXPECT_EQ(t.totalFaults(), 12u);
    const auto runs = t.pageCounts();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].first, 10u);
    EXPECT_EQ(runs[0].count, 4u);
    EXPECT_EQ(runs[0].writes, 3u);
    EXPECT_EQ(runs[0].reads, 0u);
}

TEST(AccessTracker, ZeroCountIsFree)
{
    AccessTracker t;
    EXPECT_EQ(t.onAccess({ 1, 1 }, true, 0), 0);
    EXPECT_TRUE(t.pageCounts().empty());
}

TEST(AccessTracker, PageCountsSplitOverlaps)
{
    AccessTracker t;
    t.onAccess({ 0, 6 }, false);  // [0, 6): 1 read
    t.onAccess({ 3, 5 }, false);  // [3, 8): 1 more read
    t.onAccess({ 6, 2 }, true);   // [6, 8): 1 write
    t.onAccess({ 20, 5 }, false); // a gap, then [20, 25): 1 read
    const auto runs = t.pageCounts();
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[0].first, 0u);
    EXPECT_EQ(runs[0].count, 3u);
    EXPECT_EQ(runs[0].reads, 1u);
    EXPECT_EQ(runs[1].first, 3u);
    EXPECT_EQ(runs[1].count, 3u);
    EXPECT_EQ(runs[1].reads, 2u);
    EXPECT_EQ(runs[2].first, 6u);
    EXPECT_EQ(runs[2].count, 2u);
    EXPECT_EQ(runs[2].reads, 1u);
    EXPECT_EQ(runs[2].writes, 1u);
    EXPECT_EQ(runs[3].first, 20u);
    EXPECT_EQ(runs[3].count, 5u);
    EXPECT_EQ(runs[3].reads, 1u);
}

TEST(AccessTracker, MatchesPerPageReference)
{
    // Drive the run log and the per-page reference with the sequences
    // an executor produces: tensors packed at 64-byte alignment (so
    // neighbours share edge pages) and freed addresses reused, the
    // reference tracking exactly the runs the edge refcounts map and
    // unmap, and accesses to sub-runs of live tensors only.
    bool shared = false;
    bool reused = false;
    for (std::uint32_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937_64 rng(seed);
        AccessTracker t;
        sentinel::testing::RefAccessTracker ref(AccessTracker::kFaultCost);
        alloc::VirtualArena arena(0);
        std::vector<df::TensorPlacement> live;
        std::set<PageId> unmapped;
        for (int i = 0; i < 600; ++i) {
            const unsigned pick = static_cast<unsigned>(rng() % 8);
            if (live.empty() || pick < 3) {
                df::TensorPlacement pl;
                pl.bytes = 1 + rng() % (4 * kPageSize);
                pl.addr = arena.allocate(pl.bytes, 64);
                std::uint64_t mapped = 0;
                for (const PageRun &run : ref.allocate(pl)) {
                    mapped += run.count;
                    for (PageId p = run.first; p < run.endPage(); ++p)
                        reused |= unmapped.erase(p) > 0;
                }
                shared |= mapped < pl.numPages();
                live.push_back(pl);
            } else if (pick < 6) {
                const df::TensorPlacement &pl = live[rng() % live.size()];
                const std::uint64_t n = pl.numPages();
                const std::uint64_t a = rng() % n;
                const std::uint64_t b = a + 1 + rng() % (n - a);
                const PageRun run{ pl.firstPage() + a, b - a };
                const bool is_write = rng() % 2 == 0;
                const std::uint64_t episodes = 1 + rng() % 4;
                ASSERT_EQ(t.onAccess(run, is_write, episodes),
                          ref.onAccess(run, is_write, episodes));
            } else {
                const std::size_t k = rng() % live.size();
                const df::TensorPlacement pl = live[k];
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
                const std::vector<PageId> gone = ref.release(pl);
                unmapped.insert(gone.begin(), gone.end());
                arena.free(pl.addr, pl.bytes);
            }
        }

        const auto runs = t.pageCounts();
        for (std::size_t i = 0; i < runs.size(); ++i) {
            EXPECT_GT(runs[i].count, 0u);
            EXPECT_GT(runs[i].total(), 0u);
            if (i > 0) {
                EXPECT_LE(runs[i - 1].endPage(), runs[i].first);
            }
        }
        EXPECT_EQ(perPage(t), ref.observedCounts());
        EXPECT_EQ(t.totalFaults(), ref.totalFaults());
    }
    // Guards: the sequences exercised what they claim to.
    EXPECT_TRUE(shared);
    EXPECT_TRUE(reused);
}

} // namespace
} // namespace sentinel::mem
