#include <gtest/gtest.h>

#include "mem/access_tracker.hh"

namespace sentinel::mem {
namespace {

TEST(AccessTracker, CountsOnlyTrackedPages)
{
    AccessTracker t(/*fault_cost=*/1000);
    t.trackRange(1, 1);

    EXPECT_EQ(t.onAccess({ 1, 1 }, false), 1000);
    EXPECT_EQ(t.onAccess({ 2, 1 }, false), 0); // untracked: no fault, no count
    EXPECT_EQ(t.counts(1).reads, 1u);
    EXPECT_EQ(t.counts(2).total(), 0u);
}

TEST(AccessTracker, ReadsAndWritesSeparate)
{
    AccessTracker t;
    t.trackRange(7, 1);
    t.onAccess({ 7, 1 }, false, 3);
    t.onAccess({ 7, 1 }, true, 2);
    EXPECT_EQ(t.counts(7).reads, 3u);
    EXPECT_EQ(t.counts(7).writes, 2u);
    EXPECT_EQ(t.counts(7).total(), 5u);
}

TEST(AccessTracker, FaultCostScalesWithCount)
{
    AccessTracker t(500);
    t.trackRange(1, 1);
    EXPECT_EQ(t.onAccess({ 1, 1 }, false, 10), 5000);
    EXPECT_EQ(t.totalFaults(), 10u);
}

TEST(AccessTracker, UntrackStopsCountingButKeepsCounts)
{
    AccessTracker t;
    t.trackRange(4, 1);
    t.onAccess({ 4, 1 }, false);
    t.untrackRange(4, 1);
    EXPECT_EQ(t.onAccess({ 4, 1 }, false), 0);
    EXPECT_EQ(t.counts(4).reads, 1u); // profile data preserved
    // Untracking pages never tracked leaves no state behind.
    t.untrackRange(2, 4);
    EXPECT_EQ(t.allCounts().size(), 1u);
}

TEST(AccessTracker, RunChargesOneFaultPerTrackedPage)
{
    AccessTracker t(100);
    t.trackRange(10, 4);
    // Pages 8, 9 and 14 are untracked: they neither fault nor count.
    EXPECT_EQ(t.onAccess({ 8, 7 }, true, 3), 4 * 3 * 100);
    EXPECT_EQ(t.totalFaults(), 12u);
    for (PageId p = 10; p < 14; ++p)
        EXPECT_EQ(t.counts(p).writes, 3u);
    EXPECT_EQ(t.counts(9).total(), 0u);
    EXPECT_EQ(t.counts(14).total(), 0u);
}

TEST(AccessTracker, ZeroCountIsFree)
{
    AccessTracker t;
    t.trackRange(1, 1);
    EXPECT_EQ(t.onAccess({ 1, 1 }, true, 0), 0);
    EXPECT_EQ(t.counts(1).total(), 0u);
}

TEST(AccessTracker, ResetClearsEverything)
{
    AccessTracker t;
    t.trackRange(1, 1);
    t.onAccess({ 1, 1 }, false);
    t.reset();
    EXPECT_EQ(t.counts(1).total(), 0u);
    EXPECT_EQ(t.totalFaults(), 0u);
    EXPECT_TRUE(t.allCounts().empty());
    // Tracking is gone too: a new access neither faults nor counts.
    EXPECT_EQ(t.onAccess({ 1, 1 }, false), 0);
    EXPECT_EQ(t.counts(1).total(), 0u);
}

} // namespace
} // namespace sentinel::mem
