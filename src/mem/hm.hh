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

    /** Map @p page into @p tier; @return false if the tier is full. */
    bool tryMapPage(PageId page, Tier tier);

    /**
     * Map @p page into @p preferred, falling back to the next slower
     * tiers in order and finally back toward the faster ones if all
     * slower tiers are full.  A completely full system is a
     * configuration error (fatal).
     *
     * @return the tier actually used.
     */
    Tier mapPage(PageId page, Tier preferred);

    /**
     * Map [first, first+count) into @p preferred, spilling the suffix
     * tier-by-tier in the same fallback order as mapPage() — exactly
     * page-for-page what a mapPage() loop would do, but with one
     * reservation per tier.  Fatal if the whole chain runs out.
     */
    void mapRange(PageId first, std::uint64_t count, Tier preferred);

    /** Unmap @p page, releasing its space (commits arrivals first). */
    void unmapPage(PageId page, Tick now);

    /**
     * Unmap [first, first+count), cancelling in-flight migrations and
     * releasing the whole range's space with one release per tier.
     */
    void unmapRange(PageId first, std::uint64_t count, Tick now);

    bool isMapped(PageId page) const { return table_.isMapped(page); }

    // --- Residency -----------------------------------------------------

    /**
     * Tier where @p page's data can be read at time @p now.  A page in
     * flight is served from its source tier.
     */
    Tier residentTier(PageId page, Tick now);

    /** True if @p page has a migration still in flight at @p now. */
    bool inFlight(PageId page, Tick now);

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state at @p now — the executor's extent walk.
     */
    PageRunState residentRange(PageId first, std::uint64_t count, Tick now);

    /** True if any page of [first, first+count) is migrating at @p now. */
    bool inFlightAny(PageId first, std::uint64_t count, Tick now);

    /** Arrival time of the in-flight migration (page must be in flight). */
    Tick arrivalTime(PageId page) const;

    /** Direction and final-leg link of an in-flight page's migration. */
    struct FlightInfo {
        bool toward_fast = false;
        unsigned link = 0; ///< link whose completion the page waits on
    };
    FlightInfo flightInfo(PageId page) const;

    // --- Migration -----------------------------------------------------

    /**
     * Schedule moving @p page to @p dst, starting no earlier than
     * @p ready.  Transfers that cross several links stream
     * store-and-forward, each leg on its own channel.
     *
     * @return the completion tick, or -1 if the destination is full or
     *         the page is already at/moving to @p dst.
     */
    Tick migratePage(PageId page, Tier dst, Tick ready);

    /**
     * Migrate a batch as ONE transfer (a single move_pages() call /
     * one cudaMemPrefetchAsync): the per-transfer setup cost is paid
     * once per channel, not per page.  Pages already at/moving to
     * @p dst are skipped; migration stops early if the destination
     * fills.
     *
     * @return the number of pages whose migration was scheduled.
     */
    std::size_t migratePages(std::span<const PageId> pages, Tier dst,
                             Tick ready);

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

    /** Scale the fast tier's capacity relative to its baseline. */
    void setFastCapacityScale(double scale) { setTierCapacityScale(0, scale); }

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
     * Queue one page through every leg from @p src to @p dst,
     * store-and-forward.  Each channel's per-transfer startup is paid
     * by the first page of the batch to touch it; @p startup_paid is
     * the per-batch bitmask of channels already charged (bit
     * 2*link + direction).
     */
    Tick submitLegs(unsigned src, unsigned dst, Tick ready,
                    std::uint32_t &startup_paid);

    static constexpr Tick kNoArrival = std::numeric_limits<Tick>::max();

    /**
     * One scheduled migratePages() batch: the pages in submit order
     * with their individual arrival ticks and source-tier indices.
     * Page k of the batch holds migration sequence seq0 + k
     * (beginMigration() numbers them consecutively inside the
     * scheduling loop), so the commit loop never stores per-page
     * sequence numbers.  The pending set is a binary min-heap of
     * batches keyed by each batch's next uncommitted arrival — one
     * heap node per *batch* instead of per page.
     */
    struct PendingBatch {
        Tick next_arrival = 0;   ///< arrival of pages[cursor]
        std::uint64_t seq0 = 0;  ///< migration seq of pages[0]
        std::uint32_t cursor = 0;
        Tier dst = Tier::Fast;
        std::vector<std::pair<PageId, Tick>> pages; ///< (page, arrival)
        std::vector<std::uint8_t> src; ///< source tier index per page
    };
    struct BatchLater {
        bool
        operator()(const PendingBatch &a, const PendingBatch &b) const
        {
            return a.next_arrival > b.next_arrival;
        }
    };

    /** Out-of-line slow path of commitUpTo(). */
    void drainArrivals(Tick now);
    /** Push @p b onto the pending heap and refresh next_arrival_. */
    void pushBatch(PendingBatch &&b);
    /** Pooled batch for the next schedule (reused, no allocation in
     *  steady state); pages/src buffers come back cleared. */
    PendingBatch takeBatch();

    std::vector<MemoryTier> tiers_; ///< fastest-first chain
    std::vector<Link> links_;       ///< links_[i]: tiers i <-> i+1
    std::vector<std::uint64_t> base_capacity_; ///< per tier
    PageTable table_;
    std::vector<PendingBatch> pending_; ///< min-heap (BatchLater)
    std::vector<PendingBatch> batch_pool_;
    Tick next_arrival_ = kNoArrival; ///< pending_ top's key (cached)
    HmStats stats_;

    telemetry::Session *telemetry_ = nullptr;
    telemetry::AttributionEngine *attr_ = nullptr;
    telemetry::Counter *promoted_ctr_ = nullptr;
    telemetry::Counter *demoted_ctr_ = nullptr;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_HM_HH
