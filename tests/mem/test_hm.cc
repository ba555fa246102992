#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/hm.hh"
#include "support/ref_migration.hh"

namespace sentinel::mem {

/** Reads the flight records behind a HeterogeneousMemory. */
class HmTestPeer
{
  public:
    static std::size_t
    numFlights(const HeterogeneousMemory &hm)
    {
        return hm.table_.numFlights();
    }

    /** Ids of the records every pending batch still holds. */
    static std::vector<PageTable::FlightId>
    pendingRecords(const HeterogeneousMemory &hm)
    {
        std::vector<PageTable::FlightId> ids;
        for (const HeterogeneousMemory::PendingBatch &b : hm.pending_)
            for (PageTable::FlightId id = b.head; id != PageTable::kNoFlight;
                 id = hm.table_.flight(id).next)
                ids.push_back(id);
        return ids;
    }
};

namespace {

HeterogeneousMemory
makeHm(std::uint64_t fast_pages = 4, std::uint64_t slow_pages = 1024)
{
    TierParams fast{ "dram", fast_pages * kPageSize, 10e9, 10e9, 100, 100 };
    TierParams slow{ "pmm", slow_pages * kPageSize, 2e9, 1e9, 300, 300 };
    // 1 GB/s promote, 1 GB/s demote, no startup: one page = 4096 ns.
    MigrationParams mig{ 1e9, 1e9, 0 };
    return HeterogeneousMemory({ fast, slow }, { mig });
}

/** Move one page through the run entry point.  @return its arrival,
 *  or -1 if nothing was scheduled. */
Tick
movePage(HeterogeneousMemory &hm, PageId page, Tier dst, Tick ready)
{
    const PageRun run[] = { { page, 1 } };
    if (hm.migratePages(run, dst, ready) == 0)
        return -1;
    return hm.flightInfo(page).arrival;
}

/** Tier @p page is read from at @p now (its one-page run state). */
Tier
tierAt(HeterogeneousMemory &hm, PageId page, Tick now)
{
    return hm.residentRange(page, 1, now).tier;
}

bool
inFlightAt(HeterogeneousMemory &hm, PageId page, Tick now)
{
    return hm.residentRange(page, 1, now).in_flight;
}

TEST(Hm, MapPreferredTier)
{
    auto hm = makeHm();
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_EQ(tierAt(hm, 1, 0), Tier::Fast);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), kPageSize);
}

TEST(Hm, MapFallsBackWhenFull)
{
    auto hm = makeHm(1);
    hm.mapRange(0, 1, Tier::Fast);
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_EQ(tierAt(hm, 0, 0), Tier::Fast);
    EXPECT_EQ(tierAt(hm, 1, 0), Tier::Slow);
}

TEST(Hm, MapPastTheChainClampsToSlowest)
{
    auto hm = makeHm();
    hm.mapRange(0, 2, makeTier(5));
    PageRunState rs = hm.residentRange(0, 2, 0);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_EQ(rs.count, 2u);
}

TEST(Hm, BothTiersFullIsFatal)
{
    auto hm = makeHm(1, 1);
    hm.mapRange(0, 1, Tier::Fast);
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_THROW(hm.mapRange(2, 1, Tier::Fast), std::runtime_error);
}

TEST(Hm, MigrationTimingAndResidency)
{
    auto hm = makeHm();
    hm.mapRange(5, 1, Tier::Slow);

    Tick arrival = movePage(hm, 5, Tier::Fast, 0);
    EXPECT_EQ(arrival, 4096); // 4 KiB at 1 GB/s

    // While in flight the page is served from its source.
    EXPECT_EQ(tierAt(hm, 5, arrival - 1), Tier::Slow);
    EXPECT_TRUE(inFlightAt(hm, 5, arrival - 1));
    HeterogeneousMemory::FlightInfo fi = hm.flightInfo(5);
    EXPECT_EQ(fi.arrival, arrival);
    EXPECT_TRUE(fi.toward_fast);
    EXPECT_EQ(fi.link, 0u);

    // After arrival it lives in fast memory.
    EXPECT_EQ(tierAt(hm, 5, arrival), Tier::Fast);
    EXPECT_FALSE(inFlightAt(hm, 5, arrival));
}

TEST(Hm, MigrationReservesDestinationUpFront)
{
    auto hm = makeHm(1);
    hm.mapRange(0, 1, Tier::Slow);
    hm.mapRange(1, 1, Tier::Slow);

    EXPECT_GE(movePage(hm, 0, Tier::Fast, 0), 0);
    // Fast tier is fully reserved by the in-flight page.
    EXPECT_EQ(movePage(hm, 1, Tier::Fast, 0), -1);
}

TEST(Hm, SourceReleasedOnlyAtCompletion)
{
    auto hm = makeHm();
    hm.mapRange(9, 1, Tier::Slow);
    std::uint64_t slow_before = hm.tier(Tier::Slow).used();

    Tick arrival = movePage(hm, 9, Tier::Fast, 0);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), slow_before);
    hm.commitUpTo(arrival);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), slow_before - kPageSize);
}

TEST(Hm, RedundantMigrationRejected)
{
    auto hm = makeHm();
    hm.mapRange(2, 1, Tier::Fast);
    EXPECT_EQ(movePage(hm, 2, Tier::Fast, 0), -1);

    hm.mapRange(3, 1, Tier::Slow);
    EXPECT_GE(movePage(hm, 3, Tier::Fast, 0), 0);
    // Already in flight.
    EXPECT_EQ(movePage(hm, 3, Tier::Fast, 0), -1);
}

TEST(Hm, UnmapInFlightReleasesBothReservations)
{
    auto hm = makeHm(2);
    hm.mapRange(1, 1, Tier::Slow);
    movePage(hm, 1, Tier::Fast, 0);
    std::uint64_t fast_used = hm.tier(Tier::Fast).used();
    EXPECT_EQ(fast_used, kPageSize);

    hm.unmapRange(1, 1, 0); // freed before arrival
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    // The late commit must not corrupt capacity accounting.
    hm.commitUpTo(1'000'000);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
}

TEST(Hm, BatchMigrationSerializesOnChannel)
{
    auto hm = makeHm(8);
    hm.mapRange(10, 3, Tier::Slow);
    const PageRun pages[] = { { 10, 3 } };

    EXPECT_EQ(hm.migratePages(pages, Tier::Fast, 0), 3u);
    // Three pages over one serialized 1 GB/s channel: the batch's last
    // page arrives after all three transferred back-to-back.
    EXPECT_EQ(hm.flightInfo(12).arrival, 3 * 4096);
    EXPECT_EQ(hm.flightInfo(10).arrival, 1 * 4096);
    EXPECT_EQ(hm.stats().promoted_pages, 3u);
    EXPECT_EQ(hm.stats().promoted_bytes, 3 * kPageSize);
}

TEST(Hm, BatchMigrationChargesOneStartup)
{
    TierParams fast{ "dram", 8 * kPageSize, 10e9, 10e9, 100, 100 };
    TierParams slow{ "pmm", 1024 * kPageSize, 2e9, 1e9, 300, 300 };
    MigrationParams mig{ 1e9, 1e9, 1000 }; // 1 us startup
    HeterogeneousMemory hm({ fast, slow }, { mig });
    hm.mapRange(1, 4, Tier::Slow);
    const PageRun pages[] = { { 1, 4 } };

    hm.migratePages(pages, Tier::Fast, 0);
    // One setup cost for the whole batch, then pages stream.
    EXPECT_EQ(hm.flightInfo(4).arrival, 1000 + 4 * 4096);
}

TEST(Hm, BatchMigrationStopsWhenDestinationFull)
{
    auto hm = makeHm(2);
    hm.mapRange(1, 4, Tier::Slow);
    const PageRun pages[] = { { 1, 4 } };

    EXPECT_EQ(hm.migratePages(pages, Tier::Fast, 0), 2u);
    EXPECT_EQ(hm.stats().promoted_pages, 2u);
}

TEST(Hm, BatchMigrationSkipsIneligiblePages)
{
    auto hm = makeHm(8);
    hm.mapRange(1, 1, Tier::Fast); // already there
    hm.mapRange(2, 1, Tier::Slow);
    hm.mapRange(3, 1, Tier::Slow);
    movePage(hm, 3, Tier::Fast, 0); // already in flight
    const PageRun pages[] = { { 1, 3 } };
    EXPECT_EQ(hm.migratePages(pages, Tier::Fast, 0), 1u);
}

TEST(Hm, PromoteAndDemoteUseSeparateChannels)
{
    auto hm = makeHm(8);
    hm.mapRange(1, 1, Tier::Slow);
    hm.mapRange(2, 1, Tier::Fast);

    Tick up = movePage(hm, 1, Tier::Fast, 0);
    Tick down = movePage(hm, 2, Tier::Slow, 0);
    // Channels run in parallel (the paper's two helper threads), so the
    // two single-page transfers finish at the same time.
    EXPECT_EQ(up, down);
    EXPECT_EQ(hm.stats().demoted_pages, 1u);
}

TEST(Hm, PeakUsageTracked)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, Tier::Fast);
    hm.unmapRange(1, 1, 0);
    EXPECT_EQ(hm.tier(Tier::Fast).peakUsed(), 2 * kPageSize);
}

TEST(Hm, MapRangeMatchesPerPagePlacement)
{
    // Bulk mapping must place pages exactly like a one-page loop:
    // a preferred-tier prefix while capacity lasts, then fallback.
    auto hm = makeHm(3);
    auto ref = makeHm(3);
    hm.mapRange(10, 5, Tier::Fast);
    for (PageId p = 10; p < 15; ++p)
        ref.mapRange(p, 1, Tier::Fast);
    for (PageId p = 10; p < 15; ++p)
        EXPECT_EQ(tierAt(hm, p, 0), tierAt(ref, p, 0));
    EXPECT_EQ(hm.tier(Tier::Fast).used(), ref.tier(Tier::Fast).used());
    EXPECT_EQ(hm.tier(Tier::Slow).used(), ref.tier(Tier::Slow).used());
}

TEST(Hm, MapRangeBothTiersFullIsFatal)
{
    auto hm = makeHm(1, 1);
    hm.mapRange(0, 2, Tier::Fast);
    EXPECT_THROW(hm.mapRange(2, 1, Tier::Fast), std::runtime_error);
}

TEST(Hm, UnmapRangeReleasesPerTier)
{
    auto hm = makeHm(2);
    hm.mapRange(0, 5, Tier::Fast); // 2 fast + 3 slow
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 2 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 3 * kPageSize);
    hm.unmapRange(0, 5, 0);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    EXPECT_FALSE(hm.isMapped(3));
}

TEST(Hm, UnmapRangeCancelsInFlight)
{
    auto hm = makeHm(4);
    hm.mapRange(0, 2, Tier::Slow);
    movePage(hm, 0, Tier::Fast, 0);
    hm.unmapRange(0, 2, 0); // before arrival
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    hm.commitUpTo(1'000'000);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
}

TEST(Hm, ResidentRangeSplitsOnTierAndFlight)
{
    auto hm = makeHm(8);
    hm.mapRange(0, 4, Tier::Slow);
    hm.mapRange(4, 4, Tier::Fast);

    PageRunState rs = hm.residentRange(0, 8, 0);
    EXPECT_EQ(rs.tier, Tier::Slow);
    EXPECT_EQ(rs.count, 4u);
    rs = hm.residentRange(4, 4, 0);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_EQ(rs.count, 4u);

    Tick arrival = movePage(hm, 2, Tier::Fast, 0);
    rs = hm.residentRange(0, 4, arrival - 1);
    EXPECT_EQ(rs.count, 2u);
    EXPECT_FALSE(rs.in_flight);
    rs = hm.residentRange(2, 2, arrival - 1);
    EXPECT_EQ(rs.tier, Tier::Slow); // served from its source
    EXPECT_TRUE(rs.in_flight);
    EXPECT_EQ(rs.count, 1u);

    // residentRange commits landed transfers before it reads.
    rs = hm.residentRange(2, 2, arrival);
    EXPECT_EQ(rs.tier, Tier::Fast);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 1u); // page 3 is still Slow
    EXPECT_FALSE(inFlightAt(hm, 3, arrival));
}

TEST(Hm, ResidentRangeOfAnUnmappedPagePanics)
{
    // UM's eviction reads a queued run's residency without testing
    // isMapped() first: this panic is the check that a queued page is
    // mapped.
    auto hm = makeHm(8);
    hm.mapRange(4, 4, Tier::Fast);
    EXPECT_THROW(hm.residentRange(0, 1, 0), std::logic_error);
    EXPECT_THROW(hm.residentRange(8, 2, 0), std::logic_error);
    hm.unmapRange(4, 4, 0);
    EXPECT_THROW(hm.residentRange(4, 1, 0), std::logic_error);
}

TEST(Hm, RemigratedRunIgnoresItsFreedRecord)
{
    // A run freed mid-flight, remapped and migrated again before its
    // old batch drains: the old record flips nothing, the new one lands
    // at its own arrivals, and tier usage balances throughout.
    auto hm = makeHm(64);
    hm.mapRange(0, 16, Tier::Slow);
    const PageRun run[] = { { 0, 16 } };
    ASSERT_EQ(hm.migratePages(run, Tier::Fast, 0), 16u);
    EXPECT_EQ(hm.flightInfo(15).arrival, 16 * 4096);

    hm.unmapRange(0, 16, 4096 - 1);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    hm.mapRange(0, 16, Tier::Slow);
    // The channel is still busy with the freed transfer.
    ASSERT_EQ(hm.migratePages(run, Tier::Fast, 4096), 16u);
    EXPECT_EQ(HmTestPeer::numFlights(hm), 2u);
    for (PageId p = 0; p < 16; ++p)
        EXPECT_EQ(hm.flightInfo(p).arrival,
                  static_cast<Tick>(16 + p + 1) * 4096)
            << p;

    // The old batch drains: nothing lands, nothing is released.
    const PageRunState mid = hm.residentRange(0, 16, 16 * 4096);
    EXPECT_TRUE(mid.in_flight);
    EXPECT_EQ(mid.tier, Tier::Slow);
    EXPECT_EQ(mid.count, 16u);
    EXPECT_EQ(HmTestPeer::numFlights(hm), 1u);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 16 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 16 * kPageSize);

    // The new one lands page by page at its own arrivals.
    EXPECT_EQ(hm.residentRange(0, 16, 17 * 4096).count, 1u);
    EXPECT_EQ(tierAt(hm, 0, 17 * 4096), Tier::Fast);
    EXPECT_TRUE(inFlightAt(hm, 1, 18 * 4096 - 1));
    const PageRunState done = hm.residentRange(0, 16, 32 * 4096);
    EXPECT_FALSE(done.in_flight);
    EXPECT_EQ(done.tier, Tier::Fast);
    EXPECT_EQ(done.count, 16u);
    EXPECT_EQ(HmTestPeer::numFlights(hm), 0u);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 16 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
}

TEST(Hm, DrainedBatchesRetireTheirRecords)
{
    // Batches of several runs, some pieces split across a 3-tier chain,
    // drained again and again: every record retires with its batch, and
    // later batches reuse the same slots.
    std::vector<TierParams> tiers = {
        { "hbm", 256 * kPageSize, 200e9, 200e9, 60, 60 },
        { "dram", 256 * kPageSize, 76e9, 50e9, 85, 90 },
        { "pmm", 1024 * kPageSize, 30e9, 10e9, 300, 120 },
    };
    HeterogeneousMemory hm(tiers, { { 2e9, 1e9, 500 }, { 1e9, 5e8, 700 } });
    hm.mapRange(0, 96, makeTier(2));
    const PageRun runs[] = { { 0, 32 }, { 40, 24 }, { 70, 26 } };
    std::vector<PageTable::FlightId> seen;
    std::size_t warm = 0;
    Tick now = 0;
    for (int cycle = 0; cycle < 50; ++cycle) {
        for (Tier to : { Tier::Fast, makeTier(1), makeTier(2) }) {
            // Two batches in flight at once: the runs, then a straggler
            // page freed and remapped mid-flight.
            ASSERT_GT(hm.migratePages(runs, to, now), 0u);
            const PageRun straggler[] = { { 32, 1 } };
            if (!hm.isMapped(32))
                hm.mapRange(32, 1, makeTier(2));
            hm.migratePages(straggler, to, now);
            const std::vector<PageTable::FlightId> ids =
                HmTestPeer::pendingRecords(hm);
            EXPECT_EQ(ids.size(), HmTestPeer::numFlights(hm));
            seen.insert(seen.end(), ids.begin(), ids.end());
            hm.unmapRange(32, 1, now + 1);
            now += 1'000'000'000;
            hm.commitUpTo(now);
            ASSERT_EQ(HmTestPeer::numFlights(hm), 0u) << "cycle " << cycle;
            EXPECT_TRUE(HmTestPeer::pendingRecords(hm).empty());
        }
        std::sort(seen.begin(), seen.end());
        seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
        if (cycle == 0)
            warm = seen.size();
        // The pool stops growing once it has held one cycle's records.
        ASSERT_EQ(seen.size(), warm) << "cycle " << cycle;
    }
    EXPECT_GT(warm, 3u);
    const PageRunState rs = hm.residentRange(0, 32, now);
    EXPECT_EQ(rs.tier, makeTier(2));
    EXPECT_EQ(rs.count, 32u);
}

TEST(Hm, ResetRestoresPristineState)
{
    auto hm = makeHm();
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, Tier::Slow);
    movePage(hm, 2, Tier::Fast, 0);
    hm.reset();
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
    EXPECT_FALSE(hm.isMapped(1));
    EXPECT_EQ(hm.stats().promoted_pages, 0u);
}

} // namespace
} // namespace sentinel::mem

namespace sentinel::mem {
namespace {

TEST(Hm, TeleportFlipsTierInstantlyWithoutTraffic)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 3, Tier::Fast);
    EXPECT_EQ(hm.teleportRange({ 1, 3 }, Tier::Slow, 0), 3u);
    EXPECT_EQ(hm.residentRange(1, 3, 0).count, 3u);
    EXPECT_EQ(tierAt(hm, 1, 0), Tier::Slow);
    // No channel traffic, no migration stats: a discard, not a copy.
    EXPECT_EQ(hm.stats().demoted_bytes, 0u);
    EXPECT_EQ(hm.demoteChannel().bytesTransferred(), 0u);
    // Capacity moved with the pages.
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 0u);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 3 * kPageSize);
}

TEST(Hm, TeleportToSameTierIsNoop)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Fast);
    EXPECT_EQ(hm.teleportRange({ 1, 1 }, Tier::Fast, 0), 0u);
    EXPECT_EQ(tierAt(hm, 1, 0), Tier::Fast);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), kPageSize);
}

TEST(Hm, TeleportFailsWhenDestinationFull)
{
    auto hm = makeHm(1);
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, Tier::Slow);
    EXPECT_EQ(hm.teleportRange({ 2, 1 }, Tier::Fast, 0), 0u);
    EXPECT_EQ(tierAt(hm, 2, 0), Tier::Slow);
}

TEST(Hm, TeleportFillsDestinationPartwayThroughRun)
{
    // Pages 1..2 sit in fast memory already; 3..6 are slow and only two
    // of them fit in the two free fast pages.
    auto hm = makeHm(4);
    hm.mapRange(1, 2, Tier::Fast);
    hm.mapRange(3, 4, Tier::Slow);
    EXPECT_EQ(hm.teleportRange({ 1, 6 }, Tier::Fast, 0), 2u);
    EXPECT_EQ(hm.residentRange(1, 4, 0).tier, Tier::Fast);
    EXPECT_EQ(hm.residentRange(1, 6, 0).count, 4u);
    EXPECT_EQ(hm.residentRange(5, 2, 0).tier, Tier::Slow);
    EXPECT_EQ(hm.residentRange(5, 2, 0).count, 2u);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 4 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 2 * kPageSize);
    EXPECT_EQ(hm.stats().promoted_bytes, 0u);
}

TEST(Hm, TeleportSkipsInFlightPageWithinRun)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 3, Tier::Slow);
    Tick arrival = movePage(hm, 2, Tier::Fast, 0);
    // Pages 1 and 3 flip around the in-flight page 2, which its
    // transfer still owns.
    EXPECT_EQ(hm.teleportRange({ 1, 3 }, Tier::Fast, 0), 2u);
    EXPECT_EQ(tierAt(hm, 1, 0), Tier::Fast);
    EXPECT_EQ(tierAt(hm, 3, 0), Tier::Fast);
    EXPECT_TRUE(inFlightAt(hm, 2, 0));
    // The transfer lands as scheduled and releases its source page.
    EXPECT_EQ(tierAt(hm, 2, arrival), Tier::Fast);
    EXPECT_EQ(hm.residentRange(1, 3, arrival).count, 3u);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 3 * kPageSize);
    EXPECT_EQ(hm.tier(Tier::Slow).used(), 0u);
}

TEST(Hm, TeleportWaitsOutInFlightMigrations)
{
    auto hm = makeHm(4);
    hm.mapRange(1, 1, Tier::Slow);
    Tick arrival = movePage(hm, 1, Tier::Fast, 0);
    // Mid-flight: refuse (the transfer owns the page).
    EXPECT_EQ(hm.teleportRange({ 1, 1 }, Tier::Slow, arrival - 1), 0u);
    // After arrival: fine.
    EXPECT_EQ(hm.teleportRange({ 1, 1 }, Tier::Slow, arrival), 1u);
    EXPECT_EQ(tierAt(hm, 1, arrival), Tier::Slow);
}

} // namespace
} // namespace sentinel::mem

namespace sentinel::mem {
namespace {

TEST(Hm, OneTierChainMoveToSlowSchedulesNothing)
{
    // "Demote to slow" on a chain with no slower tier clamps to the
    // only tier, where every page already is.
    TierParams hbm{ "hbm", 8 * kPageSize, 10e9, 10e9, 100, 100 };
    HeterogeneousMemory hm({ hbm }, {});
    hm.mapRange(0, 4, Tier::Fast);
    const PageRun run[] = { { 0, 4 } };
    EXPECT_EQ(hm.migratePages(run, Tier::Slow, 0), 0u);
    EXPECT_EQ(hm.stats().demoted_pages, 0u);
    PageRunState rs = hm.residentRange(0, 4, 0);
    EXPECT_FALSE(rs.in_flight);
    EXPECT_EQ(rs.count, 4u);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 4 * kPageSize);
}

TEST(Hm, StagedRunStreamsAtBottleneckPace)
{
    // Two legs, the second slower: pages leave leg 1 every 4096 ns and
    // leg 2 every 8192 ns, so leg 2 paces the run from the start.
    TierParams fast{ "hbm", 64 * kPageSize, 10e9, 10e9, 100, 100 };
    TierParams mid{ "dram", 64 * kPageSize, 5e9, 5e9, 200, 200 };
    TierParams slow{ "nvme", 64 * kPageSize, 2e9, 1e9, 300, 300 };
    HeterogeneousMemory hm({ fast, mid, slow },
                           { { 0.5e9, 0.5e9, 0 }, { 1e9, 1e9, 0 } });
    hm.mapRange(0, 8, hm.slowestTier());
    const PageRun run[] = { { 0, 8 } };
    EXPECT_EQ(hm.migratePages(run, Tier::Fast, 0), 8u);
    for (PageId p = 0; p < 8; ++p)
        EXPECT_EQ(hm.flightInfo(p).arrival,
                  4096 + static_cast<Tick>(p + 1) * 8192);
    EXPECT_EQ(hm.linkChannel(1, true).numTransfers(), 8u);
    EXPECT_EQ(hm.linkChannel(0, true).busyUntil(),
              hm.flightInfo(7).arrival);
}

TEST(Hm, FlightInfoNamesTheFinalLeg)
{
    // A staged move waits on the link next to its destination, not on
    // the one it leaves first.
    TierParams fast{ "hbm", 64 * kPageSize, 10e9, 10e9, 100, 100 };
    TierParams mid{ "dram", 64 * kPageSize, 5e9, 5e9, 200, 200 };
    TierParams slow{ "nvme", 64 * kPageSize, 2e9, 1e9, 300, 300 };
    HeterogeneousMemory hm({ fast, mid, slow },
                           { { 1e9, 1e9, 0 }, { 1e9, 1e9, 0 } });
    hm.mapRange(0, 1, hm.slowestTier());
    hm.mapRange(1, 1, Tier::Fast);
    hm.mapRange(2, 1, makeTier(1));

    Tick up = movePage(hm, 0, Tier::Fast, 0);
    HeterogeneousMemory::FlightInfo fi = hm.flightInfo(0);
    EXPECT_TRUE(fi.toward_fast);
    EXPECT_EQ(fi.link, 0u);
    EXPECT_EQ(fi.arrival, up);
    EXPECT_EQ(up, 2 * 4096); // two legs of one page each

    Tick down = movePage(hm, 1, hm.slowestTier(), 0);
    fi = hm.flightInfo(1);
    EXPECT_FALSE(fi.toward_fast);
    EXPECT_EQ(fi.link, 1u);
    EXPECT_EQ(fi.arrival, down);

    Tick mid_up = movePage(hm, 2, Tier::Fast, 100'000);
    fi = hm.flightInfo(2);
    EXPECT_TRUE(fi.toward_fast);
    EXPECT_EQ(fi.link, 0u);
    EXPECT_EQ(fi.arrival, mid_up);
    EXPECT_EQ(mid_up, 100'000 + 4096);
}

/** Shape of one fault-series check (see FaultSeriesMatchesPerPageFaults). */
struct FaultCase {
    unsigned tiers = 2;
    std::uint64_t count = 1;
    Tick gap = 0;
    Tick startup = 0;
    bool busy_up = false;      ///< a promotion holds the up legs at ready
    bool demote_lands = false; ///< a demotion out of fast lands mid-series
};

/** Every observable of @p hm and @p ref at @p now over @p pages,
 *  tier usage also before either commits up to @p now. */
void
expectSameState(HeterogeneousMemory &hm, testing::RefMigration &ref,
                Tick now, const std::vector<PageId> &pages)
{
    for (unsigned t = 0; t < ref.numTiers(); ++t)
        EXPECT_EQ(hm.tier(makeTier(t)).used(), ref.tier(t).used())
            << "tier " << t << " before committing";
    hm.commitUpTo(now);
    ref.commitUpTo(now);
    for (PageId p : pages) {
        const PageEntry want = ref.table().entry(p);
        const PageRunState got = hm.residentRange(p, 1, now);
        EXPECT_EQ(got.tier, want.tier) << p;
        ASSERT_EQ(got.in_flight, want.in_flight) << p;
        if (want.in_flight) {
            EXPECT_EQ(hm.flightInfo(p).arrival, want.arrival) << p;
        }
    }
    for (unsigned t = 0; t < ref.numTiers(); ++t)
        EXPECT_EQ(hm.tier(makeTier(t)).used(), ref.tier(t).used())
            << "tier " << t;
    EXPECT_EQ(hm.stats().promoted_pages, ref.stats().promoted_pages);
    EXPECT_EQ(hm.stats().promoted_bytes, ref.stats().promoted_bytes);
    EXPECT_EQ(hm.stats().demoted_pages, ref.stats().demoted_pages);
    EXPECT_EQ(hm.stats().demoted_bytes, ref.stats().demoted_bytes);
    for (unsigned l = 0; l + 1 < ref.numTiers(); ++l) {
        for (bool up : { true, false }) {
            const sim::BandwidthChannel &x = hm.linkChannel(l, up);
            const sim::BandwidthChannel &y = ref.linkChannel(l, up);
            EXPECT_EQ(x.busyUntil(), y.busyUntil()) << l << up;
            EXPECT_EQ(x.bytesTransferred(), y.bytesTransferred()) << l << up;
            EXPECT_EQ(x.numTransfers(), y.numTransfers()) << l << up;
            EXPECT_EQ(x.busyTime(), y.busyTime()) << l << up;
        }
    }
}

/**
 * faultSeries() on a run in the slowest tier against the reference
 * faulting the same pages one at a time: a one-page migratePages()
 * per page, page i+1 issued @c gap after page i lands.
 */
void
expectFaultSeriesMatchesPerPage(const FaultCase &c)
{
    std::vector<TierParams> tiers{
        { "hbm", 64 * kPageSize, 10e9, 10e9, 100, 100 }
    };
    if (c.tiers == 3)
        tiers.push_back({ "dram", 64 * kPageSize, 5e9, 5e9, 200, 200 });
    tiers.push_back({ "nvme", 1024 * kPageSize, 2e9, 1e9, 300, 300 });
    std::vector<MigrationParams> links{ { 1e9, 0.7e9, c.startup } };
    if (c.tiers == 3)
        links.push_back({ 0.6e9, 1e9, c.startup / 2 });
    HeterogeneousMemory hm(tiers, links);
    testing::RefMigration ref(tiers, links);

    // Fast pages [0, 8); the run at 100 and 8 more pages behind it.
    const Tier slow = makeTier(c.tiers - 1);
    const PageId base = 100;
    hm.mapRange(0, 8, Tier::Fast);
    ref.mapRange(0, 8, Tier::Fast);
    hm.mapRange(base, c.count + 8, slow);
    ref.mapRange(base, c.count + 8, slow);
    std::vector<PageId> pages;
    for (PageId p = 0; p < 8; ++p)
        pages.push_back(p);
    for (PageId p = base; p < base + c.count + 8; ++p)
        pages.push_back(p);
    auto both = [&](PageId first, Tier dst) {
        const PageRun run[] = { { first, 8 } };
        std::vector<PageId> one_by_one;
        for (PageId p = first; p < first + 8; ++p)
            one_by_one.push_back(p);
        ASSERT_EQ(hm.migratePages(run, dst, 0),
                  ref.migratePages(one_by_one, dst, 0));
    };
    if (c.busy_up)
        both(base + c.count, Tier::Fast);
    if (c.demote_lands)
        both(0, slow);

    const Tick ready = 1000;
    const sim::TransferSeries a =
        hm.faultSeries(base, c.count, Tier::Fast, ready, c.gap);
    ASSERT_EQ(a.count, c.count);
    Tick issue = ready;
    for (std::uint64_t i = 0; i < c.count; ++i) {
        if (i > 0)
            issue = ref.table().entry(base + i - 1).arrival + c.gap;
        const PageId page[] = { base + i };
        ASSERT_EQ(ref.migratePages(page, Tier::Fast, issue), 1u);
        EXPECT_EQ(a.at(i), ref.table().entry(base + i).arrival) << i;
    }
    if (c.busy_up) {
        EXPECT_GT(a.first, ready + c.tiers * 4096) << "the legs were idle";
    }
    // The series leaves what the faults left as of the last issue, and
    // lands the same way.
    expectSameState(hm, ref, issue, pages);
    expectSameState(hm, ref, a.last(), pages);
}

TEST(Hm, FaultSeriesMatchesPerPageFaults)
{
    // Two tiers and three (slowest -> fast over both links); a single
    // fault and longer series; back-to-back faults (gap 0) and spaced
    // ones; free legs at ready and legs still busy with an earlier
    // promotion; and a demotion out of fast landing mid-series, which
    // releases space the reference sees page by page.
    for (unsigned tiers : { 2u, 3u })
        for (std::uint64_t count : { 1u, 2u, 20u })
            for (Tick gap : { 0, 3000 })
                for (Tick startup : { 0, 1500 })
                    for (bool busy_up : { false, true })
                        for (bool demote_lands : { false, true }) {
                            const FaultCase c{ tiers,   count,  gap,
                                               startup, busy_up,
                                               demote_lands };
                            SCOPED_TRACE(::testing::Message()
                                         << tiers << " tiers, " << count
                                         << " pages, gap " << gap
                                         << ", startup " << startup
                                         << (busy_up ? ", busy" : "")
                                         << (demote_lands ? ", demote"
                                                          : ""));
                            expectFaultSeriesMatchesPerPage(c);
                        }
}

TEST(Hm, FaultSeriesRejectsRunsItCannotResolve)
{
    auto hm = makeHm(8);
    hm.mapRange(0, 4, Tier::Slow);
    hm.mapRange(4, 2, Tier::Fast);
    hm.mapRange(6, 12, Tier::Slow);
    // Mixed tiers, a page in flight, already at the destination, and
    // more pages than the destination has room for.
    EXPECT_THROW(hm.faultSeries(2, 4, Tier::Fast, 0, 0), std::logic_error);
    ASSERT_GT(movePage(hm, 1, Tier::Fast, 0), 0);
    EXPECT_THROW(hm.faultSeries(0, 3, Tier::Fast, 0, 0), std::logic_error);
    EXPECT_THROW(hm.faultSeries(4, 2, Tier::Fast, 0, 0), std::logic_error);
    EXPECT_THROW(hm.faultSeries(6, 6, Tier::Fast, 0, 0), std::logic_error);
    // None of them scheduled anything.
    EXPECT_EQ(hm.stats().promoted_pages, 1u);
    EXPECT_EQ(hm.tier(Tier::Fast).used(), 3 * kPageSize);
    EXPECT_EQ(hm.faultSeries(6, 5, Tier::Fast, 0, 0).count, 5u);
}

/**
 * Seeded randomized differential: the run-granular engine against the
 * page-at-a-time reference (tests/support/ref_migration.hh), driven
 * through identical calls on 2- to 4-tier chains over a window that
 * straddles a page-table chunk seam.  After every operation every
 * observable must agree: per-page tier and in-flight state, each
 * flight's arrival, direction and final link, tier usage, HmStats, and
 * each channel's counters.
 */
class MigrationDiff
{
  public:
    explicit MigrationDiff(std::uint64_t seed) : rng_(seed)
    {
        const unsigned n = 2 + static_cast<unsigned>(below(3));
        static constexpr double kBw[] = { 0.5e9, 0.7e9, 1e9, 2e9, 3e9 };
        static constexpr Tick kStartup[] = { 0, 0, 1000, 7777 };
        for (unsigned t = 0; t < n; ++t) {
            // Small upper tiers force partial takes; the slowest holds
            // the whole window.
            std::uint64_t pages = t + 1 == n ? 2 * kHalf : 8 + below(48);
            tiers_.push_back(TierParams{ "t" + std::to_string(t),
                                         pages * kPageSize, 10e9, 10e9,
                                         100, 100 });
        }
        for (unsigned l = 0; l + 1 < n; ++l)
            links_.push_back(MigrationParams{ kBw[below(5)], kBw[below(5)],
                                              kStartup[below(4)] });
        hm_ = std::make_unique<HeterogeneousMemory>(tiers_, links_);
        ref_ = std::make_unique<testing::RefMigration>(tiers_, links_);
    }

    void
    step()
    {
        switch (below(16)) {
          case 0: case 1: case 2:
            mapSome();
            break;
          case 3: case 4: case 5: case 6: case 7:
            migrateSome();
            break;
          case 8: case 9: case 10:
            now_ += static_cast<Tick>(below(40'000));
            break;
          case 11:
            unmapSome();
            break;
          case 12:
            if (below(3) == 0) {
                Tick up = below(2) ? static_cast<Tick>(below(50'000)) : 0;
                Tick down = below(2) ? static_cast<Tick>(below(50'000)) : 0;
                hm_->stallMigration(now_, up, down);
                ref_->stallMigration(now_, up, down);
            }
            break;
          case 13:
            if (below(3) == 0) {
                static constexpr double kScale[] = { 0.5, 1.0, 1.7, 3.0 };
                double up = kScale[below(4)], down = kScale[below(4)];
                hm_->setMigrationBandwidthScale(up, down);
                ref_->setMigrationBandwidthScale(up, down);
            }
            break;
          case 14:
            refreeSome();
            break;
          default:
            migrateSome();
            break;
        }
    }

    void
    check()
    {
        hm_->commitUpTo(now_);
        ref_->commitUpTo(now_);
        for (PageId p = kBase; p < kBase + 2 * kHalf; ++p) {
            ASSERT_EQ(hm_->isMapped(p), ref_->isMapped(p)) << p;
            if (!ref_->isMapped(p))
                continue;
            const PageEntry want = ref_->table().entry(p);
            const PageRunState got = hm_->residentRange(p, 1, now_);
            ASSERT_EQ(got.tier, want.tier) << p;
            ASSERT_EQ(got.in_flight, want.in_flight) << p;
            if (want.in_flight) {
                // The arrival waited on is the final leg's, on the
                // link next to the destination.
                const HeterogeneousMemory::FlightInfo fi =
                    hm_->flightInfo(p);
                const unsigned src = tierIndex(want.tier);
                const unsigned dst = tierIndex(want.dest);
                ASSERT_EQ(fi.arrival, want.arrival) << p;
                ASSERT_EQ(fi.toward_fast, dst < src) << p;
                ASSERT_EQ(fi.link, dst < src ? dst : dst - 1) << p;
            }
        }
        for (unsigned t = 0; t < tiers_.size(); ++t) {
            ASSERT_EQ(hm_->tier(makeTier(t)).used(), ref_->tier(t).used())
                << "tier " << t;
            ASSERT_EQ(hm_->tier(makeTier(t)).peakUsed(),
                      ref_->tier(t).peakUsed())
                << "tier " << t;
        }
        const HmStats &a = hm_->stats(), &b = ref_->stats();
        ASSERT_EQ(a.promoted_pages, b.promoted_pages);
        ASSERT_EQ(a.demoted_pages, b.demoted_pages);
        ASSERT_EQ(a.promoted_bytes, b.promoted_bytes);
        ASSERT_EQ(a.demoted_bytes, b.demoted_bytes);
        for (unsigned l = 0; l < links_.size(); ++l) {
            for (bool up : { true, false }) {
                const sim::BandwidthChannel &x = hm_->linkChannel(l, up);
                const sim::BandwidthChannel &y = ref_->linkChannel(l, up);
                ASSERT_EQ(x.busyUntil(), y.busyUntil()) << l << up;
                ASSERT_EQ(x.bytesTransferred(), y.bytesTransferred())
                    << l << up;
                ASSERT_EQ(x.numTransfers(), y.numTransfers()) << l << up;
                ASSERT_EQ(x.busyTime(), y.busyTime()) << l << up;
            }
        }
    }

    /** Pages scheduled so far (so a campaign can assert it did work). */
    std::uint64_t moved() const
    {
        return ref_->stats().promoted_pages + ref_->stats().demoted_pages;
    }

  private:
    /** The window [kBase, kBase + 2*kHalf) straddles chunk seam 2^16. */
    static constexpr std::uint64_t kHalf = 80;
    static constexpr PageId kBase = (1ull << 16) - kHalf;

    std::uint64_t below(std::uint64_t n) { return rng_() % n; }

    PageId randomPage() { return kBase + below(2 * kHalf); }

    /** Leading pages from @p p (at most @p max, inside the window)
     *  whose mapped-ness is @p mapped. */
    std::uint64_t
    prefix(PageId p, bool mapped, std::uint64_t max) const
    {
        std::uint64_t n = 0;
        while (n < max && p + n < kBase + 2 * kHalf &&
               ref_->isMapped(p + n) == mapped)
            ++n;
        return n;
    }

    void
    mapSome()
    {
        PageId p = randomPage();
        std::uint64_t n = prefix(p, false, 1 + below(32));
        if (n == 0)
            return;
        Tier pref = makeTier(static_cast<unsigned>(below(tiers_.size())));
        hm_->mapRange(p, n, pref);
        ref_->mapRange(p, n, pref);
    }

    void
    unmapSome()
    {
        PageId p = randomPage();
        std::uint64_t n = prefix(p, true, 1 + below(24));
        if (n == 0)
            return;
        hm_->unmapRange(p, n, now_);
        ref_->unmapRange(p, n, now_);
    }

    void
    refreeSome()
    {
        // Free an in-flight page, remap it and move it again at once:
        // the stale arrival must not land the new migration early.
        PageId p = randomPage();
        if (!ref_->isMapped(p) || !ref_->table().entry(p).in_flight)
            return;
        hm_->unmapRange(p, 1, now_);
        ref_->unmapRange(p, 1, now_);
        Tier pref = makeTier(static_cast<unsigned>(below(tiers_.size())));
        hm_->mapRange(p, 1, pref);
        ref_->mapRange(p, 1, pref);
        Tier dst = makeTier(static_cast<unsigned>(below(tiers_.size())));
        const PageRun run[] = { { p, 1 } };
        const PageId page[] = { p };
        ASSERT_EQ(hm_->migratePages(run, dst, now_),
                  ref_->migratePages(page, dst, now_));
    }

    void
    migrateSome()
    {
        // A run list with gaps, single pages and seam-crossing runs;
        // the reference takes the same pages flattened in order.
        std::vector<PageRun> runs;
        std::vector<PageId> pages;
        const std::uint64_t nruns = 1 + below(4);
        for (std::uint64_t r = 0; r < nruns; ++r) {
            PageId p = randomPage();
            std::uint64_t n =
                prefix(p, true, below(4) == 0 ? 1 : 1 + below(48));
            if (n == 0)
                continue;
            runs.push_back(PageRun{ p, n });
            for (std::uint64_t i = 0; i < n; ++i)
                pages.push_back(p + i);
        }
        // Destination: any tier, occasionally past the chain's end.
        Tier dst = makeTier(
            static_cast<unsigned>(below(tiers_.size() + 1)));
        // Ready before, at, or after the channels' busy horizon.
        Tick busy = now_;
        for (unsigned l = 0; l < links_.size(); ++l)
            busy = std::max({ busy, hm_->linkChannel(l, true).busyUntil(),
                              hm_->linkChannel(l, false).busyUntil() });
        Tick ready = now_;
        switch (below(3)) {
          case 0:
            break;
          case 1:
            ready = now_ + static_cast<Tick>(
                               below(static_cast<std::uint64_t>(
                                         busy - now_) + 1));
            break;
          default:
            ready = busy + static_cast<Tick>(below(20'000));
            break;
        }
        std::size_t got = hm_->migratePages(runs, dst, ready);
        ASSERT_EQ(got, ref_->migratePages(pages, dst, ready));
    }

    std::mt19937_64 rng_;
    std::vector<TierParams> tiers_;
    std::vector<MigrationParams> links_;
    std::unique_ptr<HeterogeneousMemory> hm_;
    std::unique_ptr<testing::RefMigration> ref_;
    Tick now_ = 0;
};

TEST(Hm, RandomizedDifferentialAgainstPerPageEngine)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        MigrationDiff diff(seed * 0x9e3779b97f4a7c15ull);
        for (int op = 0; op < 1500; ++op) {
            ASSERT_NO_FATAL_FAILURE(diff.step()) << "op " << op;
            ASSERT_NO_FATAL_FAILURE(diff.check()) << "after op " << op;
        }
        EXPECT_GT(diff.moved(), 0u);
    }
}

} // namespace
} // namespace sentinel::mem
