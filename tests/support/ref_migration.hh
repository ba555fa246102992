/**
 * @file
 * The page-at-a-time migration engine, kept as a test reference for
 * mem::HeterogeneousMemory.
 *
 * Every page of a batch walks its legs with one channel submit per leg
 * (the first page of the batch to touch a channel pays its startup),
 * and every page is queued with its own arrival tick.  A batch commits
 * in submit order: a page stays in flight until every earlier page of
 * its batch has landed.  Page state lives in the std::map page-table
 * model (tests/support/ref_page_table.hh), driven one page at a time,
 * so the reference shares no page-table code with the engine it is
 * compared with.  Mapping walks HeterogeneousMemory::mapRange()'s
 * fallback order one page at a time.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_MIGRATION_HH
#define SENTINEL_TESTS_SUPPORT_REF_MIGRATION_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mem/hm.hh"
#include "mem/tier.hh"
#include "sim/bandwidth_channel.hh"
#include "support/ref_page_table.hh"

namespace sentinel::testing {

class RefMigration
{
  public:
    RefMigration(const std::vector<mem::TierParams> &tiers,
                 const std::vector<mem::MigrationParams> &links)
    {
        for (const mem::TierParams &tp : tiers)
            tiers_.emplace_back(tp);
        for (const mem::MigrationParams &mp : links)
            links_.push_back(Link{
                sim::BandwidthChannel("up", mp.promote_bw, mp.startup),
                sim::BandwidthChannel("down", mp.demote_bw, mp.startup),
                mp.promote_bw, mp.demote_bw });
    }

    unsigned
    numTiers() const
    {
        return static_cast<unsigned>(tiers_.size());
    }

    mem::MemoryTier &tier(unsigned t) { return tiers_[t]; }
    const mem::HmStats &stats() const { return stats_; }
    const sim::BandwidthChannel &
    linkChannel(unsigned link, bool toward_fast) const
    {
        return toward_fast ? links_[link].up : links_[link].down;
    }

    bool isMapped(mem::PageId page) const { return table_.isMapped(page); }
    const RefPageTable &table() const { return table_; }

    /** Each page in turn: preferred, then slower, then faster. */
    void
    mapRange(mem::PageId first, std::uint64_t count, mem::Tier preferred)
    {
        const unsigned pref =
            std::min(mem::tierIndex(preferred), numTiers() - 1);
        for (mem::PageId p = first; p < first + count; ++p) {
            bool ok = tryMap(p, pref);
            for (unsigned t = pref + 1; !ok && t < numTiers(); ++t)
                ok = tryMap(p, t);
            for (unsigned t = pref; !ok && t-- > 0;)
                ok = tryMap(p, t);
        }
    }

    void
    unmapRange(mem::PageId first, std::uint64_t count, Tick now)
    {
        commitUpTo(now);
        for (mem::PageId p = first; p < first + count; ++p) {
            const mem::PageEntry e = table_.entry(p);
            if (e.in_flight)
                tiers_[mem::tierIndex(e.dest)].release(mem::kPageSize);
            tiers_[mem::tierIndex(e.tier)].release(mem::kPageSize);
            table_.unmapRange(p, 1);
        }
    }

    /** Schedule @p pages (in order) to @p dst as one batch. */
    std::size_t
    migratePages(std::span<const mem::PageId> pages, mem::Tier dst,
                 Tick ready)
    {
        commitUpTo(ready);
        const unsigned d = std::min(mem::tierIndex(dst), numTiers() - 1);
        dst = mem::makeTier(d);
        Batch b;
        std::uint32_t startup_paid = 0;
        for (mem::PageId p : pages) {
            const mem::PageEntry e = table_.entry(p);
            if (e.in_flight || e.tier == dst)
                continue;
            if (!tiers_[d].tryReserve(mem::kPageSize))
                break;
            const unsigned src = mem::tierIndex(e.tier);
            const Tick arrival = submitLegs(src, d, ready, startup_paid);
            b.recs.push_back(
                table_.beginMigrationRun(p, 1, dst, arrival, 0));
            b.pages.emplace_back(p, arrival);
            b.src.push_back(static_cast<std::uint8_t>(src));
            if (d < src) {
                stats_.promoted_bytes += mem::kPageSize;
                stats_.promoted_pages += 1;
            } else {
                stats_.demoted_bytes += mem::kPageSize;
                stats_.demoted_pages += 1;
            }
        }
        const std::size_t scheduled = b.pages.size();
        if (scheduled > 0)
            pending_.push_back(std::move(b));
        return scheduled;
    }

    /** Commit every page whose batch predecessors have all landed. */
    void
    commitUpTo(Tick now)
    {
        for (Batch &b : pending_) {
            while (b.cursor < b.pages.size() &&
                   b.pages[b.cursor].second <= now) {
                if (table_.commitMigrationRun(b.recs[b.cursor], 1))
                    tiers_[b.src[b.cursor]].release(mem::kPageSize);
                ++b.cursor;
            }
        }
        std::erase_if(pending_, [](const Batch &b) {
            return b.cursor == b.pages.size();
        });
    }

    void
    setMigrationBandwidthScale(double promote, double demote)
    {
        for (Link &l : links_) {
            l.up.setBandwidth(l.base_up_bw * promote);
            l.down.setBandwidth(l.base_down_bw * demote);
        }
    }

    void
    stallMigration(Tick now, Tick promote_for, Tick demote_for)
    {
        for (Link &l : links_) {
            if (promote_for > 0)
                l.up.blockUntil(now + promote_for);
            if (demote_for > 0)
                l.down.blockUntil(now + demote_for);
        }
    }

  private:
    struct Link {
        sim::BandwidthChannel up;
        sim::BandwidthChannel down;
        double base_up_bw;
        double base_down_bw;
    };

    /** One batch: pages in submit order with their own arrivals, each
     *  its own one-page record. */
    struct Batch {
        std::size_t cursor = 0;
        std::vector<std::pair<mem::PageId, Tick>> pages;
        std::vector<std::uint64_t> recs;
        std::vector<std::uint8_t> src;
    };

    bool
    tryMap(mem::PageId page, unsigned t)
    {
        if (!tiers_[t].tryReserve(mem::kPageSize))
            return false;
        table_.mapRange(page, 1, mem::makeTier(t));
        return true;
    }

    /** Queue one page through every leg from @p src to @p dst. */
    Tick
    submitLegs(unsigned src, unsigned dst, Tick ready,
               std::uint32_t &startup_paid)
    {
        Tick t = ready;
        const bool up = dst < src;
        for (unsigned h = 0, n = up ? src - dst : dst - src; h < n; ++h) {
            const unsigned l = up ? src - 1 - h : src + h;
            const std::uint32_t bit = 1u << (2 * l + (up ? 0 : 1));
            sim::BandwidthChannel &ch = up ? links_[l].up : links_[l].down;
            t = (startup_paid & bit)
                    ? ch.submitWithStartup(t, mem::kPageSize, 0)
                    : ch.submit(t, mem::kPageSize);
            startup_paid |= bit;
        }
        return t;
    }

    std::vector<mem::MemoryTier> tiers_;
    std::vector<Link> links_;
    RefPageTable table_;
    std::vector<Batch> pending_;
    mem::HmStats stats_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_MIGRATION_HH
