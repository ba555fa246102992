/**
 * @file
 * The heterogeneous memory system facade.
 *
 * Combines an ordered chain of MemoryTiers (fastest first), a
 * PageTable, and a migration engine of per-link serialized DMA channel
 * pairs: link i connects tiers i and i+1 with an "up" channel (toward
 * fast) and a "down" channel (toward slow), mirroring the paper's two
 * migration helper threads per link that run in parallel with
 * training.  The classic configuration is a two-tier chain with a
 * single link whose channels keep their historical names "promote" and
 * "demote".  All policies and the Sentinel runtime talk to memory
 * exclusively through this class.
 *
 * Capacity protocol: a migration reserves destination-tier space when
 * it is scheduled and releases source-tier space when it completes
 * (lazily committed as simulated time advances), so fast-memory
 * occupancy is never under-counted.  A transfer that crosses several
 * links streams store-and-forward — each leg queues on its own channel
 * and the page "arrives" when the final leg completes; intermediate
 * tiers are not occupied.
 *
 * The page run is the unit of the interface: mapping, unmapping, the
 * residency query, migration and demand faults all take runs, and a
 * single page is a one-page run.  The per-page exceptions are
 * flightInfo() (one in-flight page's own arrival) and teleportPage()
 * (Capuchin's discard, which has no transfer to batch).  A run of
 * demand faults — each page its own exposed transfer — is one
 * faultSeries() call: its arrivals are one arithmetic series too.
 *
 * The engine's unit is the page run too.  A uniform run of
 * n pages is scheduled leg by leg in closed form
 * (BandwidthChannel::submitSeries()): on a serialized fixed-rate
 * channel its completions are an arithmetic series, and a later leg
 * turns each series piece into at most two (queue-limited, then
 * input-limited).  The run is marked in flight and later committed
 * per arithmetic piece, so the cost of a move is O(legs + pieces)
 * plus the page table's byte fills.  tests/support/ref_migration.hh
 * holds a page-at-a-time model of the same engine, and test_hm.cc
 * checks the two agree after every operation.
 */

#ifndef SENTINEL_MEM_HM_HH
#define SENTINEL_MEM_HM_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"
#include "mem/page_table.hh"
#include "mem/tier.hh"
#include "sim/bandwidth_channel.hh"
#include "telemetry/attribution.hh"
#include "telemetry/session.hh"

namespace sentinel::mem {

/** Migration link description. */
struct MigrationParams {
    double promote_bw = 0.0;  ///< toward-fast bytes/second
    double demote_bw = 0.0;   ///< toward-slow bytes/second
    Tick startup = 0;         ///< per-transfer setup (syscall / launch)
};

/** Aggregate counters exposed for tables and figures. */
struct HmStats {
    std::uint64_t promoted_bytes = 0;
    std::uint64_t demoted_bytes = 0;
    std::uint64_t promoted_pages = 0;
    std::uint64_t demoted_pages = 0;
};

class HeterogeneousMemory
{
  public:
    /** Legacy two-tier constructor; delegates to the chain form. */
    HeterogeneousMemory(TierParams fast, TierParams slow,
                        MigrationParams migration);

    /**
     * N-tier chain constructor.  @p tiers is ordered fastest-first;
     * @p links[i] connects tiers i and i+1 (so links.size() must be
     * tiers.size() - 1).  A single-tier chain has no links and never
     * migrates.
     */
    HeterogeneousMemory(std::vector<TierParams> tiers,
                        std::vector<MigrationParams> links);

    // --- Topology ------------------------------------------------------

    unsigned numTiers() const { return static_cast<unsigned>(tiers_.size()); }
    unsigned numLinks() const { return static_cast<unsigned>(links_.size()); }

    /** The last (slowest) tier of the chain. */
    Tier slowestTier() const { return makeTier(numTiers() - 1); }

    // --- Mapping -------------------------------------------------------

    /**
     * Map [first, first+count) into @p preferred (clamped to the
     * chain).  The prefix that fits fills @p preferred; the rest
     * spills tier by tier, first to the slower tiers nearest-first and
     * then back toward the faster ones, with one reservation per tier.
     * A one-page call is how a single page is mapped.  Fatal if the
     * whole chain runs out.
     */
    void mapRange(PageId first, std::uint64_t count, Tier preferred);

    /**
     * Unmap [first, first+count) at @p now (committing arrivals first),
     * dropping in-flight migrations and releasing the whole range's
     * space — source and in-flight destination reservations — with one
     * release per tier.
     */
    void unmapRange(PageId first, std::uint64_t count, Tick now);

    bool isMapped(PageId page) const { return table_.isMapped(page); }

    // --- Residency -----------------------------------------------------

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state at @p now, committing arrivals first.
     * A page in flight is served from its source tier, which is the
     * tier reported.  The one residency query: a single page asks for
     * the one-page prefix.
     */
    PageRunState residentRange(PageId first, std::uint64_t count, Tick now);

    /** Where an in-flight page's migration lands, and when. */
    struct FlightInfo {
        bool toward_fast = false;
        unsigned link = 0; ///< link whose completion the page waits on
        Tick arrival = 0;  ///< completion of that final leg
    };
    /** Flight of @p page, which must be in flight.  Does not commit
     *  arrivals: ask residentRange() first. */
    FlightInfo flightInfo(PageId page) const;

    // --- Migration -----------------------------------------------------

    /**
     * Migrate the pages of @p runs to @p dst as ONE transfer (a single
     * move_pages() call / one cudaMemPrefetchAsync), starting no
     * earlier than @p ready: the per-transfer setup cost is paid once
     * per channel, not per run or page, and transfers that cross
     * several links stream store-and-forward, each leg on its own
     * channel.  Runs are taken in order; pages already at/moving to
     * @p dst are skipped, and migration stops early if the
     * destination fills.  A @p dst beyond the chain's end clamps to
     * the slowest tier.
     *
     * @return the number of pages whose migration was scheduled.
     */
    std::size_t migratePages(std::span<const PageRun> runs, Tier dst,
                             Tick ready);

    /**
     * Resolve @p count demand faults on [first, first+count) — idle
     * pages resident in one tier other than @p dst, which must have
     * room for them all — in closed form.  Each page is its own
     * transfer and pays every channel's startup.  Page 0 is ready at
     * @p ready and queues like any transfer; page i+1 is issued @p gap
     * after page i arrives, when every leg is idle again.  That is
     * exactly @p count one-page migratePages() calls, each at the
     * previous arrival plus @p gap, and the state left behind is
     * theirs: arrivals up to the last page's issue are committed.
     * One reservation, one pending segment and O(legs) channel
     * updates; one Promotion/Demotion event for the whole series.
     *
     * @return the arrivals: {a0, gap + sum over the legs of startup +
     *         transfer time, count}.
     */
    sim::TransferSeries faultSeries(PageId first, std::uint64_t count,
                                    Tier dst, Tick ready, Tick gap);

    /**
     * Instantly remap @p page into @p dst WITHOUT a data transfer —
     * the memory-system equivalent of discarding the contents and
     * rematerializing them later (Capuchin-style recomputation frees
     * device memory with no traffic; the replayed producer writes the
     * new copy).
     *
     * @return false if @p dst has no space (nothing changes).
     */
    bool teleportPage(PageId page, Tier dst, Tick now);

    /**
     * Apply every migration completion with arrival <= @p now.  Called
     * from every residency query, so the common no-op case (nothing
     * pending, or nothing due yet) is a single inline comparison
     * against the cached earliest arrival.
     */
    void
    commitUpTo(Tick now)
    {
        if (now < next_arrival_)
            return;
        drainArrivals(now);
    }

    /** Idle time of link 0's toward-fast / toward-slow channel (a
     *  single-tier chain has no links and is never busy). */
    Tick
    promoteBusyUntil() const
    {
        return links_.empty() ? 0 : links_[0].up.busyUntil();
    }
    Tick
    demoteBusyUntil() const
    {
        return links_.empty() ? 0 : links_[0].down.busyUntil();
    }

    // --- Introspection --------------------------------------------------

    const TierParams &tierParams(Tier t) const;
    MemoryTier &tier(Tier t) { return tiers_[tierIndex(t)]; }
    const MemoryTier &tier(Tier t) const { return tiers_[tierIndex(t)]; }

    const HmStats &stats() const { return stats_; }
    /** Link 0's channels.  A single-tier chain has no links; policies
     *  still read bandwidths for planning, so these return an idle
     *  placeholder channel there. */
    const sim::BandwidthChannel &
    promoteChannel() const
    {
        return links_.empty() ? nullChannel() : links_[0].up;
    }
    const sim::BandwidthChannel &
    demoteChannel() const
    {
        return links_.empty() ? nullChannel() : links_[0].down;
    }

    /** Channel of @p link in the given direction. */
    const sim::BandwidthChannel &
    linkChannel(unsigned link, bool toward_fast) const
    {
        return toward_fast ? links_[link].up : links_[link].down;
    }

    /**
     * Attach a telemetry session (null detaches).  Every scheduled
     * migration batch then emits one Promotion/Demotion event and
     * updates the per-direction byte counters; disabled telemetry is a
     * single null check on the migration paths.
     */
    void setTelemetry(telemetry::Session *session);

    /**
     * Attach a stall-attribution engine (null detaches; independent of
     * the telemetry session).  Every scheduled migration reports its
     * per-link legs, direction, and volume so per-layer / per-interval
     * / per-link migration bytes accrue in the attribution buckets.
     */
    void setAttribution(telemetry::AttributionEngine *attr) { attr_ = attr; }

    // --- Fault injection -------------------------------------------------
    //
    // All scales are ABSOLUTE multipliers on the construction-time
    // baseline (captured once), so re-applying the same scale every
    // step is idempotent rather than compounding.

    /** Re-rate every link's channels relative to their baselines. */
    void setMigrationBandwidthScale(double promote, double demote);

    /**
     * Scale any tier's capacity relative to its construction-time
     * baseline (chaos `shrink` faults; a co-tenant claiming memory on
     * that tier).  Capacity is kept page-granular, and shrinking below
     * current usage is legal on every tier — resident pages stay, new
     * reservations fail until usage drains.
     */
    void setTierCapacityScale(unsigned tier_idx, double scale);

    /** Block every link's channels for the durations starting @p now. */
    void stallMigration(Tick now, Tick promote_for, Tick demote_for);

    /** Clear pages, reservations, channels and stats. */
    void reset();

  private:
    /** One link of the chain: tier i <-> tier i+1. */
    struct Link {
        sim::BandwidthChannel up;   ///< tier i+1 -> tier i (toward fast)
        sim::BandwidthChannel down; ///< tier i -> tier i+1 (toward slow)
        double base_up_bw = 0.0;
        double base_down_bw = 0.0;
    };

    void noteMigrationEvent(bool promote, Tick ready, Tick arrival,
                            std::uint64_t bytes, std::uint32_t first_page);

    /** Idle placeholder channel for link queries on linkless chains. */
    static const sim::BandwidthChannel &nullChannel();

    /**
     * Schedule the uniform run [first, first+count) from tier @p src
     * to tier @p dst through every leg, each leg in closed form, mark
     * it in flight, and append its arrival pieces to segs_.  Each
     * channel's per-transfer startup is paid by the first page of the
     * batch to touch it; @p startup_paid is the per-batch bitmask of
     * channels already charged (bit 2*link + direction).
     *
     * @return the last page's arrival.
     */
    Tick scheduleRun(PageId first, std::uint64_t count, unsigned src,
                     unsigned dst, Tick ready, std::uint32_t &startup_paid);

    static constexpr Tick kNoArrival = std::numeric_limits<Tick>::max();

    /**
     * Pages of one run that arrive as one arithmetic series: page
     * first+k lands at a0 + k*step and holds migration sequence
     * seq0 + k.  All of them leave tier @c src.
     */
    struct Segment {
        PageId first = 0;
        std::uint64_t count = 0;
        Tick a0 = 0;
        Tick step = 0;
        std::uint64_t seq0 = 0;
        std::uint8_t src = 0;
    };

    /**
     * One scheduled migratePages() batch: segs_[cur, end) in submit
     * order.  A page commits only once every earlier page of its batch
     * has landed, so a batch's next arrival is segs_[cur].a0.  The
     * pending set is a binary min-heap of batches keyed by that tick.
     */
    struct PendingBatch {
        Tick next_arrival = 0;
        std::uint32_t cur = 0;
        std::uint32_t end = 0;
    };
    struct BatchLater {
        bool
        operator()(const PendingBatch &a, const PendingBatch &b) const
        {
            return a.next_arrival > b.next_arrival;
        }
    };

    /** Start a batch's segments (reclaiming finished ones); returns
     *  its first index in segs_. */
    std::size_t openBatch();
    /** Queue the batch of segs_[seg0, end) as pending. */
    void queueBatch(std::size_t seg0);
    /** Count @p pages moved from tier @p src to @p dst in the stats
     *  and, per link and direction, in @p link_bytes. */
    void noteMove(unsigned src, unsigned dst, std::uint64_t pages,
                  std::uint64_t (&link_bytes)[2][kMaxTiers]);
    /** Report a batch's per-link bytes to the attribution engine. */
    void noteLinkBytes(const std::uint64_t (&link_bytes)[2][kMaxTiers]);

    /** Out-of-line slow path of commitUpTo(). */
    void drainArrivals(Tick now);
    /** Drop finished segments from segs_ once they outnumber the live
     *  ones, so the store stays bounded by the in-flight work. */
    void compactSegments();

    std::vector<MemoryTier> tiers_; ///< fastest-first chain
    std::vector<Link> links_;       ///< links_[i]: tiers i <-> i+1
    std::vector<std::uint64_t> base_capacity_; ///< per tier
    PageTable table_;
    std::vector<PendingBatch> pending_; ///< min-heap (BatchLater)
    std::vector<Segment> segs_;         ///< every pending batch's pieces
    std::size_t live_segs_ = 0;         ///< segments not yet committed
    /** Arrival pieces of the leg being scheduled and of the next. */
    std::vector<sim::TransferSeries> legs_in_, legs_out_;
    Tick next_arrival_ = kNoArrival; ///< pending_ top's key (cached)
    HmStats stats_;

    telemetry::Session *telemetry_ = nullptr;
    telemetry::AttributionEngine *attr_ = nullptr;
    telemetry::Counter *promoted_ctr_ = nullptr;
    telemetry::Counter *demoted_ctr_ = nullptr;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_HM_HH
