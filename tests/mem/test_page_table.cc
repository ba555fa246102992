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
    std::uint64_t seq = pt.beginMigrationRun(3, 1, Tier::Fast, 1000, 0);
    EXPECT_TRUE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).tier, Tier::Slow);
    EXPECT_EQ(pt.entry(3).dest, Tier::Fast);
    EXPECT_EQ(pt.entry(3).arrival, 1000);
    EXPECT_EQ(pt.numInFlight(), 1u);

    EXPECT_EQ(pt.commitMigrationRun(3, 1, seq), 1u);
    EXPECT_FALSE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.entry(3).tier, Tier::Fast);
    EXPECT_EQ(pt.numInFlight(), 0u);
}

TEST(PageTable, StaleCommitIsIgnored)
{
    PageTable pt;
    pt.mapRange(3, 1, Tier::Slow);
    std::uint64_t seq1 = pt.beginMigrationRun(3, 1, Tier::Fast, 10, 0);
    pt.unmapRange(3, 1);
    pt.mapRange(3, 1, Tier::Slow);
    // The freed migration's commit must not flip the remapped page.
    EXPECT_EQ(pt.commitMigrationRun(3, 1, seq1), 0u);
    EXPECT_EQ(pt.entry(3).tier, Tier::Slow);

    // A new migration gets a new seq; old seq still rejected.
    std::uint64_t seq2 = pt.beginMigrationRun(3, 1, Tier::Fast, 20, 0);
    EXPECT_NE(seq1, seq2);
    EXPECT_EQ(pt.commitMigrationRun(3, 1, seq1), 0u);
    EXPECT_TRUE(pt.entry(3).in_flight);
    EXPECT_EQ(pt.commitMigrationRun(3, 1, seq2), 1u);
    EXPECT_EQ(pt.entry(3).tier, Tier::Fast);
}

TEST(PageTable, CommitAfterUnmapIsIgnored)
{
    PageTable pt;
    pt.mapRange(5, 1, Tier::Fast);
    std::uint64_t seq = pt.beginMigrationRun(5, 1, Tier::Slow, 10, 0);
    pt.unmapRange(5, 1);
    EXPECT_EQ(pt.commitMigrationRun(5, 1, seq), 0u);
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
    // Pages live in 2^16-page chunks; a range spanning the seam must
    // behave exactly like an interior one.
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
    // The table is fully reusable after clear (epoch bump must not
    // leave stale entries visible).
    pt.mapRange(44, 1, Tier::Slow);
    EXPECT_EQ(pt.entry(44).tier, Tier::Slow);
    EXPECT_FALSE(pt.entry(44).in_flight);
    EXPECT_EQ(pt.numMapped(), 1u);
}

TEST(PageTable, RepeatedClearCycles)
{
    // Exercises chunk epoch reuse: many clear cycles over the same
    // pages must never resurrect old entries.
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

/**
 * Seeded randomized differential run against the std::map model.
 * Pages come from two windows centred on chunk seams (2^16 and
 * 3 * 2^16), so most ranges straddle a chunk boundary.  Migrations are
 * left in flight across frees, cancels and clear(), and committed
 * later in random order (sometimes split in two), so stale commits are
 * part of the mix.  After every operation the whole window is compared
 * page by page, plus runState() over random ranges.
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
            return;
        }
        switch (below(8)) {
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
          default:
            refreeSome();
            break;
        }
    }

    void
    check()
    {
        ASSERT_EQ(pt_.numMapped(), ref_.numMapped());
        ASSERT_EQ(pt_.numInFlight(), ref_.numInFlight());
        for (PageId seam : kSeams) {
            for (PageId p = seam - kHalf; p < seam + kHalf + kMaxRun;
                 ++p) {
                ASSERT_EQ(pt_.isMapped(p), ref_.isMapped(p)) << p;
                if (!ref_.isMapped(p))
                    continue;
                PageEntry got = pt_.entry(p);
                const PageEntry &want = ref_.entry(p);
                ASSERT_EQ(got.tier, want.tier) << p;
                ASSERT_EQ(got.in_flight, want.in_flight) << p;
                if (want.in_flight) {
                    ASSERT_EQ(got.dest, want.dest) << p;
                    ASSERT_EQ(got.arrival, want.arrival) << p;
                    ASSERT_EQ(got.seq, want.seq) << p;
                }
            }
        }
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
    static constexpr PageId kSeams[] = { 1ull << 16, 3ull << 16 };
    static constexpr std::uint64_t kHalf = 96;
    static constexpr std::uint64_t kMaxRun = 64;

    /** An issued migration run, committed later (maybe stale). */
    struct Flight {
        PageId first;
        std::uint64_t count;
        std::uint64_t seq0;
    };

    std::uint64_t below(std::uint64_t n) { return rng_() % n; }

    PageId
    randomPage()
    {
        return kSeams[below(2)] - kHalf + below(2 * kHalf);
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

    void
    mapSome()
    {
        PageId p = randomPage();
        std::uint64_t n = prefix(p, false, 1 + below(kMaxRun));
        if (n == 0)
            return;
        Tier tier = makeTier(static_cast<unsigned>(below(4)));
        pt_.mapRange(p, n, tier);
        ref_.mapRange(p, n, tier);
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
        const PageTable::UnmapCounts got = pt_.unmapRange(p, n);
        const PageTable::UnmapCounts want = ref_.unmapRange(p, n);
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
        std::uint64_t n = 1 + below(rs.count);
        Tier dest = makeTier(static_cast<unsigned>(
            (tierIndex(rs.tier) + 1 + below(3)) % 4));
        Tick arrival0 = static_cast<Tick>(below(1'000'000));
        Tick step = static_cast<Tick>(below(4));
        std::uint64_t seq0 = pt_.beginMigrationRun(p, n, dest, arrival0, step);
        ASSERT_EQ(seq0, ref_.beginMigrationRun(p, n, dest, arrival0, step));
        flights_.push_back(Flight{ p, n, seq0 });
    }

    void
    commitSome()
    {
        if (flights_.empty())
            return;
        std::size_t i = below(flights_.size());
        Flight f = flights_[i];
        flights_[i] = flights_.back();
        flights_.pop_back();
        // Commit in two pieces, as arrivals draining mid-run would.
        std::uint64_t k = below(f.count + 1);
        ASSERT_EQ(pt_.commitMigrationRun(f.first, k, f.seq0),
                  ref_.commitMigrationRun(f.first, k, f.seq0));
        ASSERT_EQ(
            pt_.commitMigrationRun(f.first + k, f.count - k, f.seq0 + k),
            ref_.commitMigrationRun(f.first + k, f.count - k, f.seq0 + k));
    }

    void
    refreeSome()
    {
        // Free and remap a page of an issued run, and often migrate it
        // again, so its stale commit meets a newer migration.
        if (flights_.empty())
            return;
        const Flight &f = flights_[below(flights_.size())];
        PageId p = f.first + below(f.count);
        if (!ref_.isMapped(p) || !ref_.entry(p).in_flight)
            return;
        pt_.unmapRange(p, 1);
        ref_.unmapRange(p, 1);
        Tier tier = makeTier(static_cast<unsigned>(below(4)));
        pt_.mapRange(p, 1, tier);
        ref_.mapRange(p, 1, tier);
        if (below(2) == 0) {
            Tier dest = makeTier((tierIndex(tier) + 1 + below(3)) % 4);
            Tick arrival = static_cast<Tick>(below(1'000'000));
            std::uint64_t seq = pt_.beginMigrationRun(p, 1, dest, arrival, 0);
            ASSERT_EQ(seq, ref_.beginMigrationRun(p, 1, dest, arrival, 0));
            flights_.push_back(Flight{ p, 1, seq });
        }
    }

    PageTable pt_;
    testing::RefPageTable ref_;
    std::mt19937_64 rng_;
    std::vector<Flight> flights_;
};

TEST(PageTable, RandomizedDifferentialAgainstMapModel)
{
    for (std::uint64_t seed : { 0x9a9e7ab1eull, 0xc0ffee11ull }) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        PageTableDiff diff(seed);
        for (int op = 0; op < 6000; ++op) {
            ASSERT_NO_FATAL_FAILURE(diff.step()) << "op " << op;
            ASSERT_NO_FATAL_FAILURE(diff.check()) << "after op " << op;
        }
    }
}

} // namespace
} // namespace sentinel::mem
