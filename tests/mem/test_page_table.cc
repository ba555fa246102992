#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "support/ref_page_table.hh"

namespace sentinel::mem {
namespace {

TEST(PageTable, MapUnmap)
{
    PageTable pt;
    EXPECT_FALSE(pt.isMapped(7));
    pt.mapRange(7, 1, Tier::Slow);
    EXPECT_TRUE(pt.isMapped(7));
    EXPECT_EQ(pt.entry(7).tier, Tier::Slow);
    EXPECT_EQ(pt.numMapped(), 1u);
    pt.unmapRange(7, 1);
    EXPECT_FALSE(pt.isMapped(7));
}

TEST(PageTable, DoubleMapPanics)
{
    PageTable pt;
    pt.mapRange(1, 1, Tier::Fast);
    EXPECT_THROW(pt.mapRange(1, 1, Tier::Fast), std::logic_error);
    // A range that only overlaps a mapped page panics too.
    EXPECT_THROW(pt.mapRange(0, 4, Tier::Slow), std::logic_error);
}

TEST(PageTable, UnmapUnknownPanics)
{
    PageTable pt;
    EXPECT_THROW(pt.unmapRange(9, 1), std::logic_error);
    EXPECT_THROW(pt.entry(9), std::logic_error);
}

TEST(PageTable, MigrationLifecycle)
{
    PageTable pt;
    pt.mapRange(3, 1, Tier::Slow);
    const PageTable::FlightId id =
        pt.beginMigrationRun(3, 1, Tier::Fast, 1000, 0);
    EXPECT_EQ(pt.numFlights(), 1u);
    EXPECT_EQ(pt.flight(id).src, tierIndex(Tier::Slow));
    EXPECT_TRUE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).tier, Tier::Slow);
    EXPECT_EQ(pt.entry(3).dest, Tier::Fast);
    EXPECT_EQ(pt.entry(3).arrival, 1000);
    EXPECT_EQ(pt.numInFlight(), 1u);

    EXPECT_EQ(pt.commitMigrationRun(id, 1), 1u);
    EXPECT_FALSE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).tier, Tier::Fast);
    EXPECT_EQ(pt.numInFlight(), 0u);
    EXPECT_EQ(pt.numFlights(), 0u);
}

TEST(PageTable, StaleCommitIsIgnored)
{
    PageTable pt;
    pt.mapRange(3, 1, Tier::Slow);
    const PageTable::FlightId id1 =
        pt.beginMigrationRun(3, 1, Tier::Fast, 10, 0);
    pt.unmapRange(3, 1);
    pt.mapRange(3, 1, Tier::Slow);
    // The freed run's record stays live until its commit passes it, so
    // migrating the remapped page takes another record.
    const PageTable::FlightId id2 =
        pt.beginMigrationRun(3, 1, Tier::Fast, 20, 0);
    EXPECT_NE(id1, id2);
    EXPECT_EQ(pt.numFlights(), 2u);
    // The freed migration's commit must not flip the remapped page.
    EXPECT_EQ(pt.commitMigrationRun(id1, 1), 0u);
    EXPECT_TRUE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).arrival, 20);
    EXPECT_EQ(pt.numFlights(), 1u);
    EXPECT_EQ(pt.commitMigrationRun(id2, 1), 1u);
    EXPECT_EQ(pt.entry(3).tier, Tier::Fast);
    EXPECT_EQ(pt.numFlights(), 0u);
}

TEST(PageTable, CommitAfterUnmapIsIgnored)
{
    PageTable pt;
    pt.mapRange(5, 1, Tier::Fast);
    const PageTable::FlightId id =
        pt.beginMigrationRun(5, 1, Tier::Slow, 10, 0);
    pt.unmapRange(5, 1);
    EXPECT_EQ(pt.numFlights(), 1u);
    EXPECT_EQ(pt.commitMigrationRun(id, 1), 0u);
    EXPECT_EQ(pt.numFlights(), 0u);
}

TEST(PageTable, CommitPastTheRunEndPanics)
{
    PageTable pt;
    pt.mapRange(0, 4, Tier::Slow);
    const PageTable::FlightId id =
        pt.beginMigrationRun(0, 4, Tier::Fast, 10, 1);
    EXPECT_EQ(pt.commitMigrationRun(id, 3), 3u);
    EXPECT_THROW(pt.commitMigrationRun(id, 2), std::logic_error);
}

TEST(PageTable, DoubleMigrationPanics)
{
    PageTable pt;
    pt.mapRange(1, 4, Tier::Slow);
    pt.beginMigrationRun(1, 1, Tier::Fast, 5, 0);
    EXPECT_THROW(pt.beginMigrationRun(1, 1, Tier::Fast, 6, 0),
                 std::logic_error);
    // A run whose later page is already migrating panics as well.
    EXPECT_THROW(pt.beginMigrationRun(0, 3, Tier::Fast, 6, 0),
                 std::logic_error);
}

TEST(PageTable, SameTierMigrationPanics)
{
    PageTable pt;
    pt.mapRange(1, 1, Tier::Slow);
    EXPECT_THROW(pt.beginMigrationRun(1, 1, Tier::Slow, 5, 0),
                 std::logic_error);
}

TEST(PageTable, RangeMapUnmap)
{
    PageTable pt;
    pt.mapRange(100, 50, Tier::Fast);
    EXPECT_EQ(pt.numMapped(), 50u);
    for (PageId p = 100; p < 150; ++p) {
        ASSERT_TRUE(pt.isMapped(p));
        EXPECT_EQ(pt.entry(p).tier, Tier::Fast);
    }
    EXPECT_FALSE(pt.isMapped(99));
    EXPECT_FALSE(pt.isMapped(150));
    pt.unmapRange(100, 50);
    EXPECT_EQ(pt.numMapped(), 0u);
    EXPECT_FALSE(pt.isMapped(125));
}

TEST(PageTable, RunStateFindsUniformPrefix)
{
    PageTable pt;
    pt.mapRange(0, 10, Tier::Slow);
    pt.mapRange(10, 5, Tier::Fast);
    pt.mapRange(15, 5, Tier::Slow);

    PageRunState rs = pt.runState(0, 20);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 10u);

    rs = pt.runState(10, 10);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_EQ(rs.count, 5u);

    // An in-flight page splits the run even within one tier.
    pt.beginMigrationRun(17, 1, Tier::Fast, 99, 0);
    rs = pt.runState(15, 5);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 2u);
    rs = pt.runState(17, 3);
    EXPECT_TRUE(rs.in_flight);
    EXPECT_EQ(rs.count, 1u);
}

TEST(PageTable, RunStateStopsAtFirstInFlightPage)
{
    PageTable pt;
    pt.mapRange(0, 8, Tier::Slow);
    EXPECT_EQ(pt.runState(0, 8).count, 8u);
    pt.beginMigrationRun(6, 1, Tier::Fast, 10, 0);
    PageRunState rs = pt.runState(0, 8);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 6u);
    EXPECT_EQ(pt.runState(0, 6).count, 6u);
    rs = pt.runState(6, 2);
    EXPECT_TRUE(rs.in_flight);
    EXPECT_EQ(rs.count, 1u);
}

TEST(PageTable, SparseHighAddresses)
{
    // The co-allocation layout places regions at multiples of 2^44
    // bytes (2^32 pages); the table must handle those page numbers
    // without densifying the gaps.
    PageTable pt;
    const PageId bases[] = { 0, 1ull << 32, 2ull << 32, 3ull << 32 };
    for (PageId base : bases)
        pt.mapRange(base, 16, Tier::Slow);
    EXPECT_EQ(pt.numMapped(), 64u);
    for (PageId base : bases) {
        EXPECT_TRUE(pt.isMapped(base + 15));
        EXPECT_FALSE(pt.isMapped(base + 16));
        PageRunState rs = pt.runState(base, 16);
        EXPECT_EQ(rs.count, 16u);
    }
    for (PageId base : bases)
        pt.unmapRange(base, 16);
    EXPECT_EQ(pt.numMapped(), 0u);
}

TEST(PageTable, RangeAcrossChunkBoundary)
{
    // A range across page 2^16 behaves like any other.
    PageTable pt;
    const PageId seam = 1ull << 16;
    pt.mapRange(seam - 8, 16, Tier::Fast);
    EXPECT_EQ(pt.numMapped(), 16u);
    PageRunState rs = pt.runState(seam - 8, 16);
    EXPECT_EQ(rs.count, 16u);
    EXPECT_EQ(rs.tier, Tier::Fast);
    pt.beginMigrationRun(seam, 1, Tier::Slow, 5, 0);
    rs = pt.runState(seam - 8, 16);
    EXPECT_EQ(rs.count, 8u);
    EXPECT_TRUE(pt.runState(seam, 8).in_flight);
    PageTable::UnmapCounts freed = pt.unmapRange(seam - 8, 16);
    EXPECT_EQ(freed.src[tierIndex(Tier::Fast)], 16u);
    EXPECT_EQ(freed.dest[tierIndex(Tier::Slow)], 1u);
    EXPECT_EQ(pt.numMapped(), 0u);
    EXPECT_EQ(pt.numInFlight(), 0u);
}

TEST(PageTable, ClearForgetsEverything)
{
    PageTable pt;
    pt.mapRange(40, 10, Tier::Fast);
    pt.beginMigrationRun(44, 1, Tier::Slow, 7, 0);
    pt.clear();
    EXPECT_EQ(pt.numMapped(), 0u);
    for (PageId p = 40; p < 50; ++p)
        EXPECT_FALSE(pt.isMapped(p));
    // The table is fully reusable after clear, with nothing stale
    // left visible.
    pt.mapRange(44, 1, Tier::Slow);
    EXPECT_EQ(pt.entry(44).tier, Tier::Slow);
    EXPECT_FALSE(pt.entry(44).in_flight);
    EXPECT_EQ(pt.numMapped(), 1u);
}

TEST(PageTable, RepeatedClearCycles)
{
    // Many clear cycles over the same pages must never resurrect old
    // entries.
    PageTable pt;
    for (int cycle = 0; cycle < 100; ++cycle) {
        pt.mapRange(0, 4, Tier::Fast);
        pt.mapRange(1ull << 20, 1, Tier::Slow);
        EXPECT_EQ(pt.numMapped(), 5u);
        pt.clear();
        EXPECT_EQ(pt.numMapped(), 0u);
        EXPECT_FALSE(pt.isMapped(0));
        EXPECT_FALSE(pt.isMapped(1ull << 20));
    }
}

TEST(PageTable, IdlePageReportsNoFlight)
{
    PageTable pt;
    pt.mapRange(3, 4, Tier::Slow);
    const PageTable::FlightId id =
        pt.beginMigrationRun(3, 4, Tier::Fast, 100, 7);
    EXPECT_EQ(pt.entry(5).arrival, 114);
    EXPECT_EQ(pt.commitMigrationRun(id, 4), 4u);
    // dest/arrival are meaningful only in flight; an idle page reports
    // its own tier and a zero arrival, not its last migration.
    PageEntry e = pt.entry(5);
    EXPECT_FALSE(e.in_flight);
    EXPECT_EQ(e.dest, Tier::Fast);
    EXPECT_EQ(e.arrival, 0);
}

TEST(PageTable, BatchRecordsChainInSubmitOrder)
{
    // A run begun after another record links behind it; each record
    // commits on its own, at its own destination.
    PageTable pt;
    pt.mapRange(0, 8, Tier::Slow);
    const PageTable::FlightId a =
        pt.beginMigrationRun(0, 4, Tier::Fast, 10, 1);
    const PageTable::FlightId b =
        pt.beginMigrationRun(4, 4, makeTier(2), 20, 1, a);
    EXPECT_EQ(pt.flight(a).next, b);
    EXPECT_EQ(pt.flight(b).next, PageTable::kNoFlight);
    EXPECT_EQ(pt.flight(b).nextArrival(), 20);
    EXPECT_EQ(pt.commitMigrationRun(a, 4), 4u);
    EXPECT_EQ(pt.commitMigrationRun(b, 2), 2u);
    EXPECT_EQ(pt.flight(b).nextArrival(), 22);
    EXPECT_EQ(pt.commitMigrationRun(b, 2), 2u);
    EXPECT_EQ(pt.numFlights(), 0u);
    EXPECT_EQ(pt.runState(0, 8).count, 4u);
    EXPECT_EQ(pt.entry(3).tier, Tier::Fast);
    EXPECT_EQ(pt.entry(4).tier, makeTier(2));
}

TEST(PageTable, FreedFlightLivesUntilItsCommitsPassIt)
{
    PageTable pt;
    pt.mapRange(0, 8, Tier::Slow);
    const PageTable::FlightId id1 =
        pt.beginMigrationRun(0, 8, Tier::Fast, 10, 2);
    pt.unmapRange(0, 3);
    pt.unmapRange(3, 5);
    EXPECT_EQ(pt.numFlights(), 1u);
    // Migrating the same pages again cannot take the freed record's
    // slot while its commits are still due; those commits land nothing.
    pt.mapRange(0, 8, Tier::Slow);
    const PageTable::FlightId id2 =
        pt.beginMigrationRun(0, 8, Tier::Fast, 50, 1);
    EXPECT_NE(id1, id2);
    EXPECT_EQ(pt.numFlights(), 2u);
    EXPECT_EQ(pt.commitMigrationRun(id1, 4), 0u);
    EXPECT_EQ(pt.commitMigrationRun(id1, 4), 0u);
    EXPECT_EQ(pt.numFlights(), 1u);
    EXPECT_EQ(pt.numInFlight(), 8u);
    EXPECT_EQ(pt.entry(7).arrival, 57);
    EXPECT_EQ(pt.commitMigrationRun(id2, 8), 8u);
    EXPECT_EQ(pt.numFlights(), 0u);
    // The retired slot is the next one handed out.
    EXPECT_EQ(pt.beginMigrationRun(0, 1, Tier::Slow, 60, 0), id2);
}

TEST(PageTable, PartlyFreedFlightLandsTheRest)
{
    // A page unmapped mid-flight leaves the run in several stretches;
    // the pages still in flight under it all land, the remapped page
    // (migrated again by another record) does not.
    PageTable pt;
    pt.mapRange(0, 8, Tier::Slow);
    const PageTable::FlightId id =
        pt.beginMigrationRun(0, 8, Tier::Fast, 10, 1);
    EXPECT_EQ(pt.commitMigrationRun(id, 2), 2u);
    pt.unmapRange(5, 1);
    pt.mapRange(5, 1, Tier::Slow);
    const PageTable::FlightId again =
        pt.beginMigrationRun(5, 1, makeTier(2), 30, 0);
    EXPECT_EQ(pt.commitMigrationRun(id, 4), 3u);
    EXPECT_EQ(pt.commitMigrationRun(id, 2), 2u);
    EXPECT_EQ(pt.runState(0, 5).tier, Tier::Fast);
    EXPECT_EQ(pt.runState(0, 8).count, 5u);
    EXPECT_TRUE(pt.entry(5).in_flight);
    EXPECT_EQ(pt.entry(5).dest, makeTier(2));
    EXPECT_EQ(pt.commitMigrationRun(again, 1), 1u);
    EXPECT_EQ(pt.entry(5).tier, makeTier(2));
    EXPECT_EQ(pt.numInFlight(), 0u);
    EXPECT_EQ(pt.numFlights(), 0u);
}

TEST(PageTable, PiecewiseCommitMergesBackIntoOneStretch)
{
    // Adjacent stretches of one tier and flight are always merged: a
    // run migrated into its neighbours' tier and committed in pieces
    // ends as one stretch with them, and runState() covers it whole.
    PageTable pt;
    pt.mapRange(0, 100, Tier::Fast);
    pt.mapRange(100, 64, Tier::Slow);
    pt.mapRange(164, 36, Tier::Fast);
    EXPECT_EQ(pt.numStretches(), 3u);
    const PageTable::FlightId id =
        pt.beginMigrationRun(100, 64, Tier::Fast, 10, 1);
    EXPECT_EQ(pt.numStretches(), 3u);
    for (std::uint64_t n : { 5u, 20u, 1u }) {
        EXPECT_EQ(pt.commitMigrationRun(id, n), n);
        EXPECT_EQ(pt.numStretches(), 3u) << "landed pages join the left";
    }
    EXPECT_EQ(pt.commitMigrationRun(id, 38), 38u);
    EXPECT_EQ(pt.numStretches(), 1u);
    PageRunState rs = pt.runState(0, 200);
    EXPECT_EQ(rs.count, 200u);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_FALSE(rs.in_flight);

    // A one-page migration splits the stretch in three; its commit,
    // and a one-page free and remap, merge it back.
    const PageTable::FlightId one =
        pt.beginMigrationRun(150, 1, Tier::Slow, 20, 0);
    EXPECT_EQ(pt.numStretches(), 3u);
    EXPECT_EQ(pt.runState(0, 200).count, 150u);
    EXPECT_EQ(pt.commitMigrationRun(one, 1), 1u);
    EXPECT_EQ(pt.numStretches(), 3u);
    pt.unmapRange(150, 1);
    EXPECT_EQ(pt.numStretches(), 2u);
    pt.mapRange(150, 1, Tier::Fast);
    EXPECT_EQ(pt.numStretches(), 1u);
    EXPECT_EQ(pt.runState(0, 200).count, 200u);

    // Pieces of a run that lost a page land around the hole and merge
    // with each other.
    const PageTable::FlightId cut =
        pt.beginMigrationRun(40, 20, Tier::Slow, 30, 1);
    pt.unmapRange(45, 1);
    EXPECT_EQ(pt.commitMigrationRun(cut, 8), 7u);
    EXPECT_EQ(pt.commitMigrationRun(cut, 12), 12u);
    EXPECT_EQ(pt.numStretches(), 4u); // fast, slow, hole, slow, fast
    pt.mapRange(45, 1, Tier::Slow);
    EXPECT_EQ(pt.numStretches(), 3u);
    EXPECT_EQ(pt.runState(40, 20).count, 20u);
}

TEST(PageTable, FlightPoolStaysAtItsHighWaterMark)
{
    PageTable pt;
    const std::uint64_t kRuns = 8;
    const std::uint64_t kLen = 16;
    pt.mapRange(0, kRuns * kLen, Tier::Slow);
    PageTable::FlightId ids[kRuns];
    for (std::uint64_t r = 0; r < kRuns; ++r)
        ids[r] = pt.beginMigrationRun(r * kLen, kLen, Tier::Fast, 0, 1);
    EXPECT_EQ(pt.numFlights(), kRuns);
    for (std::uint64_t r = 0; r < kRuns; ++r)
        pt.commitMigrationRun(ids[r], kLen);
    EXPECT_EQ(pt.numFlights(), 0u);

    // 1,000 cycles, each with at most kRuns flights live at once: every
    // begin reuses a retired record.  Runs are committed in two pieces,
    // or lose a page to a free-and-remap first.
    std::mt19937_64 rng(0x5eed);
    Tier at = Tier::Fast;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        const Tier to = at == Tier::Fast ? Tier::Slow : Tier::Fast;
        for (std::uint64_t r = 0; r < kRuns; ++r)
            ids[r] = pt.beginMigrationRun(r * kLen, kLen, to, cycle, 1);
        ASSERT_EQ(pt.numFlights(), kRuns);
        for (std::uint64_t r = 0; r < kRuns; ++r) {
            const PageId first = r * kLen;
            if (rng() % 4 == 0) {
                const PageId p = first + rng() % kLen;
                pt.unmapRange(p, 1);
                pt.mapRange(p, 1, to);
            }
            const std::uint64_t k = rng() % (kLen + 1);
            pt.commitMigrationRun(ids[r], k);
            pt.commitMigrationRun(ids[r], kLen - k);
        }
        ASSERT_EQ(pt.numFlights(), 0u) << "cycle " << cycle;
        ASSERT_EQ(pt.numInFlight(), 0u) << "cycle " << cycle;
        ASSERT_EQ(pt.runState(0, kRuns * kLen).count, kRuns * kLen);
        at = to;
    }
}

/**
 * Seeded randomized differential run against the std::map model.
 * Pages come from three distant windows, the last past 2^32 pages, and
 * each operation picks one, so edits interleave at three loci.
 * Migrations are left in flight across frees, cancels and clear(), and
 * their records are committed later in random pieces, in order, until
 * commits pass their last page.  Some runs are begun as two chained
 * records.  Whole flights are freed and migrated again while their old
 * record is still due, and single pages are freed, remapped and
 * re-migrated mid-flight, so stale commits are part of the mix.  A
 * UM-like churn walks every other page of a window with one-page
 * begins, commits, frees and remaps, fragmenting it into a thousand
 * stretches, so the table holds thousands across many leaves that
 * split and merge, and flights are committed after their stretch moved
 * to another leaf.  After every operation the live records are
 * compared against the model's, every page within kMaxRun of a range
 * the operation edited page by page, and runState() at random; every
 * 16th operation, and at the end, every page of the windows.
 */
class PageTableDiff
{
  public:
    explicit PageTableDiff(std::uint64_t seed) : rng_(seed) {}

    void
    step()
    {
        if (below(400) == 0) {
            pt_.clear();
            ref_.clear();
            flights_.clear();
            for (PageId centre : kWindows)
                edit(centre - kHalf, 2 * kHalf);
            return;
        }
        if (below(60) == 0) {
            churn();
            return;
        }
        switch (below(9)) {
          case 0:
          case 1:
            mapSome();
            break;
          case 2:
            unmapSome();
            break;
          case 3:
          case 4:
            beginSome();
            break;
          case 5:
          case 6:
            commitSome();
            break;
          case 7:
            refreeSome();
            break;
          default:
            freeFlight();
            break;
        }
    }

    /** Commit what every live record has left; nothing may stay in
     *  flight or hold a record. */
    void
    drain()
    {
        while (!flights_.empty())
            ASSERT_NO_FATAL_FAILURE(commit(0, flights_[0].left));
        ASSERT_EQ(ref_.numInFlight(), 0u);
        ASSERT_EQ(pt_.numInFlight(), 0u);
        ASSERT_EQ(pt_.numFlights(), 0u);
        ASSERT_EQ(ref_.numFlights(), 0u);
    }

    /** Most stretches the table has held at a check. */
    std::size_t peakStretches() const { return peak_stretches_; }

    /** Commits of a record whose stretch had moved to another leaf
     *  since its begin. */
    std::size_t movedCommits() const { return moved_commits_; }

    /** Compare the tables: every page of the windows when @p full,
     *  else every page near a range edited since the last check. */
    void
    check(bool full)
    {
        peak_stretches_ = std::max(peak_stretches_, pt_.numStretches());
        ASSERT_EQ(pt_.numMapped(), ref_.numMapped());
        ASSERT_EQ(pt_.numInFlight(), ref_.numInFlight());
        ASSERT_EQ(pt_.numFlights(), flights_.size());
        ASSERT_EQ(ref_.numFlights(), flights_.size());
        for (const Flight &f : flights_)
            ASSERT_EQ(pt_.flight(f.id).count - pt_.flight(f.id).cursor,
                      f.left);
        auto page = [&](PageId p) {
            ASSERT_EQ(pt_.isMapped(p), ref_.isMapped(p)) << p;
            if (!ref_.isMapped(p))
                return;
            PageEntry got = pt_.entry(p);
            const PageEntry &want = ref_.entry(p);
            ASSERT_EQ(got.tier, want.tier) << p;
            ASSERT_EQ(got.in_flight, want.in_flight) << p;
            if (want.in_flight) {
                ASSERT_EQ(got.dest, want.dest) << p;
                ASSERT_EQ(got.arrival, want.arrival) << p;
            }
        };
        if (full) {
            for (PageId centre : kWindows)
                for (PageId p = centre - kHalf;
                     p < centre + kHalf + kMaxRun; ++p)
                    ASSERT_NO_FATAL_FAILURE(page(p));
        } else {
            // Each page once, though the ranges overlap.
            std::sort(edited_.begin(), edited_.end());
            PageId done = 0;
            for (auto [first, last] : edited_) {
                for (PageId p = std::max(first, done); p < last; ++p)
                    ASSERT_NO_FATAL_FAILURE(page(p));
                done = std::max(done, last);
            }
        }
        edited_.clear();
        for (int i = 0; i < 4; ++i) {
            PageId p = randomPage();
            std::uint64_t n = prefix(p, true, 2 * kMaxRun);
            if (n == 0)
                continue;
            PageRunState got = pt_.runState(p, n);
            PageRunState want = ref_.runState(p, n);
            ASSERT_EQ(got.tier, want.tier) << p;
            ASSERT_EQ(got.in_flight, want.in_flight) << p;
            ASSERT_EQ(got.count, want.count) << p;
        }
    }

  private:
    static constexpr PageId kWindows[] = { 1ull << 16, 3ull << 16,
                                           (5ull << 32) + 7 };
    static constexpr std::uint64_t kHalf = 1100;
    static constexpr std::uint64_t kMaxRun = 64;

    /** A live record: its id in each table, the pages it has left and
     *  the leaf its stretch was begun in. */
    struct Flight {
        PageTable::FlightId id;
        std::uint64_t rec;
        PageId first;
        std::uint64_t count;
        std::uint64_t left;
        std::uint32_t leaf;
    };

    std::uint64_t below(std::uint64_t n) { return rng_() % n; }

    PageId
    randomPage()
    {
        return kWindows[below(3)] - kHalf + below(2 * kHalf);
    }

    /** Leading pages from @p p (at most @p max) whose mapped-ness is
     *  @p mapped. */
    std::uint64_t
    prefix(PageId p, bool mapped, std::uint64_t max) const
    {
        std::uint64_t n = 0;
        while (n < max && ref_.isMapped(p + n) == mapped)
            ++n;
        return n;
    }

    /** Note [first, first+count) edited, with kMaxRun pages either
     *  side, for the next check. */
    void
    edit(PageId first, std::uint64_t count)
    {
        edited_.emplace_back(first - kMaxRun, first + count + kMaxRun);
    }

    /** Map [first, first+count) into @p tier in both tables. */
    void
    map(PageId first, std::uint64_t count, Tier tier)
    {
        pt_.mapRange(first, count, tier);
        ref_.mapRange(first, count, tier);
        edit(first, count);
    }

    /** Begin [first, first+count) in both tables, chained after
     *  @p after in the real one.  A live record's slot is never
     *  handed out again. */
    Flight
    begin(PageId first, std::uint64_t count, Tier dest, Tick arrival0,
          Tick step, PageTable::FlightId after = PageTable::kNoFlight)
    {
        const Flight f{ pt_.beginMigrationRun(first, count, dest, arrival0,
                                              step, after),
                        ref_.beginMigrationRun(first, count, dest, arrival0,
                                               step),
                        first, count, count, pt_.leafOf(first) };
        for (const Flight &g : flights_)
            EXPECT_NE(g.id, f.id) << "slot of a live record reused";
        flights_.push_back(f);
        edit(first, count);
        return f;
    }

    /** Commit the next @p n pages of flights_[i]; drop it once its
     *  commits have passed its last page. */
    void
    commit(std::size_t i, std::uint64_t n)
    {
        Flight &f = flights_[i];
        // While no page past the cursor was freed, the record's pages
        // from the cursor on are still one stretch.
        if (n > 0 && pt_.flight(f.id).dropped == 0 &&
            pt_.leafOf(f.first + f.count - f.left) != f.leaf)
            ++moved_commits_;
        ASSERT_EQ(pt_.commitMigrationRun(f.id, n),
                  ref_.commitMigrationRun(f.rec, n));
        edit(f.first, f.count);
        f.left -= n;
        if (f.left == 0) {
            flights_[i] = flights_.back();
            flights_.pop_back();
        }
    }

    Tier
    otherTier(Tier t)
    {
        return makeTier((tierIndex(t) + 1 + below(3)) % 4);
    }

    void
    mapSome()
    {
        PageId p = randomPage();
        std::uint64_t n = prefix(p, false, 1 + below(kMaxRun));
        if (n == 0)
            return;
        map(p, n, makeTier(static_cast<unsigned>(below(4))));
    }

    void
    unmapSome()
    {
        PageId p = randomPage();
        std::uint64_t n = prefix(p, true, 1 + below(kMaxRun));
        if (n == 0)
            return;
        // A free drops in-flight pages with their migrations (their
        // pending commits must later be ignored) and reports them by
        // destination, as HeterogeneousMemory needs to release both
        // reservations.
        unmap(p, n);
    }

    /** Unmap [p, p+n) in both tables; what each removed must agree. */
    void
    unmap(PageId p, std::uint64_t n)
    {
        const PageTable::UnmapCounts got = pt_.unmapRange(p, n);
        const PageTable::UnmapCounts want = ref_.unmapRange(p, n);
        edit(p, n);
        for (unsigned t = 0; t < kMaxTiers; ++t) {
            ASSERT_EQ(got.src[t], want.src[t]) << "tier " << t;
            ASSERT_EQ(got.dest[t], want.dest[t]) << "tier " << t;
        }
    }

    void
    beginSome()
    {
        PageId p = randomPage();
        std::uint64_t m = prefix(p, true, kMaxRun);
        if (m == 0)
            return;
        PageRunState rs = ref_.runState(p, m);
        if (rs.in_flight)
            return;
        const std::uint64_t n = 1 + below(rs.count);
        // Sometimes begin the run as two records, the second chained
        // behind the first as one batch's pieces are.
        const std::uint64_t split = n > 1 && below(4) == 0 ? 1 + below(n - 1)
                                                          : n;
        auto one = [&](PageId first, std::uint64_t len,
                       PageTable::FlightId after) {
            return begin(first, len, otherTier(rs.tier),
                         static_cast<Tick>(below(1'000'000)),
                         static_cast<Tick>(below(4)), after).id;
        };
        const PageTable::FlightId head = one(p, split, PageTable::kNoFlight);
        if (split < n) {
            const PageTable::FlightId tail = one(p + split, n - split, head);
            ASSERT_EQ(pt_.flight(head).next, tail);
        }
    }

    void
    commitSome()
    {
        // A piece as arrivals draining mid-run would commit: sometimes
        // nothing, sometimes all that is left.
        if (flights_.empty())
            return;
        const std::size_t i = below(flights_.size());
        commit(i, below(flights_[i].left + 1));
    }

    void
    freeFlight()
    {
        // Free every page of a live record's run, remap the pages and
        // migrate them again as one run while the old record is still
        // due; then the old record's commits must land nothing.
        if (flights_.empty())
            return;
        const Flight old = flights_[below(flights_.size())];
        for (PageId p = old.first; p < old.first + old.count; ++p)
            if (ref_.isMapped(p))
                ASSERT_NO_FATAL_FAILURE(unmap(p, 1));
        Tier tier = makeTier(static_cast<unsigned>(below(4)));
        map(old.first, old.count, tier);
        begin(old.first, old.count, otherTier(tier),
              static_cast<Tick>(below(1'000'000)),
              static_cast<Tick>(below(4)));
        const std::uint64_t k = below(old.left + 1);
        for (std::uint64_t n : { k, old.left - k }) {
            ASSERT_EQ(pt_.commitMigrationRun(old.id, n), 0u);
            ASSERT_EQ(ref_.commitMigrationRun(old.rec, n), 0u);
        }
        std::erase_if(flights_,
                      [&](const Flight &f) { return f.id == old.id; });
    }

    void
    churn()
    {
        // Every other page of a window, one page at a time: begin it if
        // idle, land a piece of some live record, or free and remap it
        // (often in flight, so later commits are stale for it).
        const PageId w = kWindows[below(3)] - kHalf;
        for (PageId p = w + below(2); p < w + 2 * kHalf; p += 2) {
            const Tier tier = makeTier(static_cast<unsigned>(below(4)));
            if (!ref_.isMapped(p)) {
                map(p, 1, tier);
                continue;
            }
            switch (below(3)) {
              case 0:
                if (!ref_.entry(p).in_flight)
                    begin(p, 1, otherTier(ref_.entry(p).tier),
                          static_cast<Tick>(below(1'000'000)), 0);
                break;
              case 1:
                if (!flights_.empty()) {
                    const std::size_t i = below(flights_.size());
                    ASSERT_NO_FATAL_FAILURE(
                        commit(i, below(flights_[i].left + 1)));
                }
                break;
              default:
                ASSERT_NO_FATAL_FAILURE(unmap(p, 1));
                map(p, 1, tier);
                break;
            }
        }
    }

    void
    refreeSome()
    {
        // Free and remap a page of a live record, and often migrate it
        // again, so the record's later commit meets a newer migration.
        if (flights_.empty())
            return;
        const Flight &f = flights_[below(flights_.size())];
        const PageId p = f.first + below(f.count);
        if (!ref_.isMapped(p) || !ref_.entry(p).in_flight)
            return;
        ASSERT_NO_FATAL_FAILURE(unmap(p, 1));
        Tier tier = makeTier(static_cast<unsigned>(below(4)));
        map(p, 1, tier);
        if (below(2) == 0)
            begin(p, 1, otherTier(tier), static_cast<Tick>(below(1'000'000)),
                  0);
    }

    PageTable pt_;
    testing::RefPageTable ref_;
    std::mt19937_64 rng_;
    /** Live records, in no particular order. */
    std::vector<Flight> flights_;
    /** Page ranges [first, last) edited since the last check. */
    std::vector<std::pair<PageId, PageId>> edited_;
    std::size_t peak_stretches_ = 0;
    std::size_t moved_commits_ = 0;
};

TEST(PageTable, RandomizedDifferentialAgainstMapModel)
{
    for (std::uint64_t seed : { 0x9a9e7ab1eull, 0xc0ffee11ull }) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        PageTableDiff diff(seed);
        for (int op = 0; op < 6000; ++op) {
            ASSERT_NO_FATAL_FAILURE(diff.step()) << "op " << op;
            ASSERT_NO_FATAL_FAILURE(diff.check(op % 16 == 15))
                << "after op " << op;
        }
        ASSERT_NO_FATAL_FAILURE(diff.check(true));
        ASSERT_NO_FATAL_FAILURE(diff.drain());
        ASSERT_NO_FATAL_FAILURE(diff.check(true));
        // The churn fragments the table as UM's evictions do, across
        // many leaves, and records land after their stretch moved.
        EXPECT_GE(diff.peakStretches(), 2000u);
        EXPECT_GE(diff.movedCommits(), 100u);
    }
}

} // namespace
} // namespace sentinel::mem
