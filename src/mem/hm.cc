#include "mem/hm.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace sentinel::mem {

namespace {

/** Channel names: link 0 keeps the historical "promote"/"demote". */
std::string
channelName(const char *base, unsigned link)
{
    if (link == 0)
        return base;
    return std::string(base) + std::to_string(link);
}

} // namespace

const sim::BandwidthChannel &
HeterogeneousMemory::nullChannel()
{
    // Non-zero bandwidth so planning ratios stay finite; the channel is
    // never submitted to (a single-tier chain cannot migrate).
    static const sim::BandwidthChannel ch("none", 1.0, 0);
    return ch;
}

HeterogeneousMemory::HeterogeneousMemory(TierParams fast, TierParams slow,
                                         MigrationParams migration)
    : HeterogeneousMemory(
          std::vector<TierParams>{ std::move(fast), std::move(slow) },
          std::vector<MigrationParams>{ migration })
{
}

HeterogeneousMemory::HeterogeneousMemory(std::vector<TierParams> tiers,
                                         std::vector<MigrationParams> links)
{
    SENTINEL_ASSERT(!tiers.empty() && tiers.size() <= kMaxTiers,
                    "tier chain must have 1..%u tiers (got %zu)",
                    kMaxTiers, tiers.size());
    SENTINEL_ASSERT(links.size() + 1 == tiers.size(),
                    "tier chain of %zu tiers needs %zu links (got %zu)",
                    tiers.size(), tiers.size() - 1, links.size());
    tiers_.reserve(tiers.size());
    base_capacity_.reserve(tiers.size());
    for (TierParams &tp : tiers) {
        base_capacity_.push_back(tp.capacity);
        tiers_.emplace_back(std::move(tp));
    }
    links_.reserve(links.size());
    for (unsigned i = 0; i < links.size(); ++i) {
        const MigrationParams &mp = links[i];
        links_.push_back(Link{
            sim::BandwidthChannel(channelName("promote", i), mp.promote_bw,
                                  mp.startup),
            sim::BandwidthChannel(channelName("demote", i), mp.demote_bw,
                                  mp.startup),
            mp.promote_bw, mp.demote_bw });
    }
}

bool
HeterogeneousMemory::tryMapPage(PageId page, Tier t)
{
    // Chains shorter than a caller assumes (a single-tier system asked
    // for Tier::Slow) simply have no such tier to map into.
    if (tierIndex(t) >= numTiers())
        return false;
    if (!tier(t).tryReserve(kPageSize))
        return false;
    table_.map(page, t);
    return true;
}

Tier
HeterogeneousMemory::mapPage(PageId page, Tier preferred)
{
    // A preference beyond the chain's end clamps to the slowest tier.
    const unsigned pref = std::min(tierIndex(preferred), numTiers() - 1);
    preferred = makeTier(pref);
    if (tryMapPage(page, preferred))
        return preferred;
    // Spill order: slower tiers first (nearest-slower outward), then
    // back toward the faster tiers — the two-tier behavior ("the other
    // tier") is the n = 2 case of this walk.
    for (unsigned t = pref + 1; t < numTiers(); ++t)
        if (tryMapPage(page, makeTier(t)))
            return makeTier(t);
    for (unsigned t = pref; t-- > 0;)
        if (tryMapPage(page, makeTier(t)))
            return makeTier(t);
    SENTINEL_FATAL("out of memory: all %u tiers full mapping page %llu "
                   "(fast %llu/%llu, slowest %llu/%llu)",
                   numTiers(), static_cast<unsigned long long>(page),
                   static_cast<unsigned long long>(tiers_.front().used()),
                   static_cast<unsigned long long>(
                       tiers_.front().capacity()),
                   static_cast<unsigned long long>(tiers_.back().used()),
                   static_cast<unsigned long long>(
                       tiers_.back().capacity()));
}

void
HeterogeneousMemory::mapRange(PageId first, std::uint64_t count,
                              Tier preferred)
{
    if (count == 0)
        return;
    // Fill the preferred tier, then spill the suffix tier-by-tier in
    // mapPage() fallback order — page-for-page what a mapPage() loop
    // would place (preferred fills first, then every later page falls
    // to the next tier with space).
    const unsigned pref = std::min(tierIndex(preferred), numTiers() - 1);
    PageId next = first;
    std::uint64_t left = count;
    auto take = [&](unsigned t) {
        std::uint64_t n = std::min<std::uint64_t>(
            left, tier(makeTier(t)).free() / kPageSize);
        if (n == 0)
            return;
        bool ok = tier(makeTier(t)).tryReserve(n * kPageSize);
        SENTINEL_ASSERT(ok, "range reservation failed");
        table_.mapRange(next, n, makeTier(t));
        next += n;
        left -= n;
    };
    take(pref);
    for (unsigned t = pref + 1; t < numTiers() && left > 0; ++t)
        take(t);
    for (unsigned t = pref; t-- > 0 && left > 0;)
        take(t);
    if (left > 0)
        SENTINEL_FATAL(
            "out of memory: all %u tiers full mapping %llu pages at %llu "
            "(fast %llu/%llu, slowest %llu/%llu)",
            numTiers(), static_cast<unsigned long long>(left),
            static_cast<unsigned long long>(next),
            static_cast<unsigned long long>(tiers_.front().used()),
            static_cast<unsigned long long>(tiers_.front().capacity()),
            static_cast<unsigned long long>(tiers_.back().used()),
            static_cast<unsigned long long>(tiers_.back().capacity()));
}

void
HeterogeneousMemory::unmapPage(PageId page, Tick now)
{
    commitUpTo(now);
    const PageEntry &e = table_.entry(page);
    if (e.in_flight) {
        // Freed before the transfer landed: drop the destination
        // reservation and leave the page at its source for release.
        tier(e.dest).release(kPageSize);
        table_.cancelMigration(page);
    }
    tier(table_.entry(page).tier).release(kPageSize);
    table_.unmap(page);
}

void
HeterogeneousMemory::unmapRange(PageId first, std::uint64_t count, Tick now)
{
    commitUpTo(now);
    std::uint64_t per_tier[kMaxTiers] = {};
    for (std::uint64_t i = 0; i < count; ++i) {
        PageId p = first + i;
        const PageEntry &e = table_.entry(p);
        if (e.in_flight) {
            tier(e.dest).release(kPageSize);
            table_.cancelMigration(p);
        }
        ++per_tier[tierIndex(e.tier)];
    }
    for (unsigned t = 0; t < numTiers(); ++t)
        if (per_tier[t] > 0)
            tiers_[t].release(per_tier[t] * kPageSize);
    table_.unmapRange(first, count);
}

Tier
HeterogeneousMemory::residentTier(PageId page, Tick now)
{
    commitUpTo(now);
    return table_.entry(page).tier;
}

bool
HeterogeneousMemory::inFlight(PageId page, Tick now)
{
    commitUpTo(now);
    return table_.entry(page).in_flight;
}

PageRunState
HeterogeneousMemory::residentRange(PageId first, std::uint64_t count,
                                   Tick now)
{
    commitUpTo(now);
    return table_.runState(first, count);
}

bool
HeterogeneousMemory::inFlightAny(PageId first, std::uint64_t count, Tick now)
{
    commitUpTo(now);
    return table_.anyInFlight(first, count);
}

Tick
HeterogeneousMemory::arrivalTime(PageId page) const
{
    const PageEntry &e = table_.entry(page);
    SENTINEL_ASSERT(e.in_flight, "arrivalTime() of non-migrating page");
    return e.arrival;
}

HeterogeneousMemory::FlightInfo
HeterogeneousMemory::flightInfo(PageId page) const
{
    const PageEntry &e = table_.entry(page);
    SENTINEL_ASSERT(e.in_flight, "flightInfo() of non-migrating page");
    FlightInfo fi;
    const unsigned src = tierIndex(e.tier);
    const unsigned dst = tierIndex(e.dest);
    fi.toward_fast = dst < src;
    // The arrival the caller waits on is the FINAL leg's completion:
    // the link adjacent to the destination tier.
    fi.link = fi.toward_fast ? dst : dst - 1;
    return fi;
}

HeterogeneousMemory::PendingBatch
HeterogeneousMemory::takeBatch()
{
    if (batch_pool_.empty())
        return {};
    PendingBatch b = std::move(batch_pool_.back());
    batch_pool_.pop_back();
    b.pages.clear();
    b.src.clear();
    b.next_arrival = 0;
    b.seq0 = 0;
    b.cursor = 0;
    return b;
}

void
HeterogeneousMemory::pushBatch(PendingBatch &&b)
{
    b.next_arrival = b.pages.front().second;
    pending_.push_back(std::move(b));
    std::push_heap(pending_.begin(), pending_.end(), BatchLater{});
    next_arrival_ = pending_.front().next_arrival;
}

Tick
HeterogeneousMemory::submitLegs(unsigned src, unsigned dst, Tick ready,
                                std::uint32_t &startup_paid)
{
    Tick t = ready;
    if (dst < src) {
        for (unsigned l = src; l-- > dst;) {
            const std::uint32_t bit = 1u << (2 * l);
            sim::BandwidthChannel &ch = links_[l].up;
            t = (startup_paid & bit) ? ch.submitWithStartup(t, kPageSize, 0)
                                     : ch.submit(t, kPageSize);
            startup_paid |= bit;
        }
    } else {
        for (unsigned l = src; l < dst; ++l) {
            const std::uint32_t bit = 1u << (2 * l + 1);
            sim::BandwidthChannel &ch = links_[l].down;
            t = (startup_paid & bit) ? ch.submitWithStartup(t, kPageSize, 0)
                                     : ch.submit(t, kPageSize);
            startup_paid |= bit;
        }
    }
    return t;
}

Tick
HeterogeneousMemory::migratePage(PageId page, Tier dst, Tick ready)
{
    commitUpTo(ready);
    PageEntry e = table_.entry(page);
    if (e.in_flight || e.tier == dst)
        return -1;
    if (!tier(dst).tryReserve(kPageSize))
        return -1;

    const unsigned src = tierIndex(e.tier);
    const unsigned d = tierIndex(dst);
    std::uint32_t startup_paid = 0;
    Tick arrival = submitLegs(src, d, ready, startup_paid);
    std::uint64_t seq = table_.beginMigration(page, dst, arrival);
    PendingBatch b = takeBatch();
    b.seq0 = seq;
    b.dst = dst;
    b.pages.emplace_back(page, arrival);
    b.src.push_back(static_cast<std::uint8_t>(src));
    pushBatch(std::move(b));

    const bool promote = d < src;
    if (promote) {
        stats_.promoted_bytes += kPageSize;
        stats_.promoted_pages += 1;
    } else {
        stats_.demoted_bytes += kPageSize;
        stats_.demoted_pages += 1;
    }
    if (telemetry_)
        noteMigrationEvent(promote, ready, arrival, kPageSize,
                           static_cast<std::uint32_t>(page));
    if (attr_) {
        // Each leg charges its own link.
        if (promote)
            for (unsigned l = src; l-- > d;)
                attr_->noteMigration(l, true, kPageSize);
        else
            for (unsigned l = src; l < d; ++l)
                attr_->noteMigration(l, false, kPageSize);
    }
    return arrival;
}

std::size_t
HeterogeneousMemory::migratePages(std::span<const PageId> pages, Tier dst,
                                  Tick ready)
{
    commitUpTo(ready);
    // Clamp to the chain (a single-tier system's "demote to slow"
    // becomes a no-op below: every page is already in the only tier).
    const unsigned d = std::min(tierIndex(dst), numTiers() - 1);
    dst = makeTier(d);
    std::size_t scheduled = 0;
    std::uint32_t startup_paid = 0;
    // Per-direction batch telemetry (a batch migrating to a MIDDLE
    // tier can mix promotes and demotes); per-link attribution bytes.
    std::uint64_t dir_bytes[2] = { 0, 0 };      // [promote, demote]
    Tick dir_last[2] = { ready, ready };
    std::uint32_t dir_first[2] = { 0, 0 };
    std::uint64_t link_bytes[2][kMaxTiers] = {};
    PendingBatch b = takeBatch();
    b.dst = dst;
    // Walk the request as maximal consecutive page stretches and query
    // the table once per uniform run instead of once per page; eligible
    // runs reserve, schedule, and begin migration in bulk.
    bool dest_full = false;
    std::size_t i = 0;
    const std::size_t n = pages.size();
    while (i < n && !dest_full) {
        std::size_t j = i + 1;
        while (j < n && pages[j] == pages[j - 1] + 1)
            ++j;
        PageId run = pages[i];
        const PageId run_end = pages[i] + (j - i);
        while (run < run_end) {
            PageRunState rs = table_.runState(run, run_end - run);
            if (rs.in_flight || rs.tier == dst) {
                run += rs.count;
                continue;
            }
            std::uint64_t take = rs.count;
            if (!tier(dst).tryReserve(take * kPageSize)) {
                // Destination nearly full: claim what fits, then let
                // the caller retry later (same greedy order as the
                // page-at-a-time path).
                take = 0;
                while (take < rs.count && tier(dst).tryReserve(kPageSize))
                    ++take;
                dest_full = true;
            }
            if (take == 0)
                break;

            const unsigned src = tierIndex(rs.tier);
            const unsigned dir = d < src ? 0 : 1;
            // First page of the batch to touch each channel pays the
            // setup cost; the rest stream.
            const std::size_t base = b.pages.size();
            for (std::uint64_t k = 0; k < take; ++k) {
                Tick arrival = submitLegs(src, d, ready, startup_paid);
                b.pages.emplace_back(run + k, arrival);
                b.src.push_back(static_cast<std::uint8_t>(src));
            }
            std::uint64_t seq = table_.beginMigrationRun(
                std::span<const std::pair<PageId, Tick>>(
                    b.pages.data() + base, take),
                dst);
            if (scheduled == 0)
                b.seq0 = seq;
            if (dir_bytes[dir] == 0)
                dir_first[dir] = static_cast<std::uint32_t>(run);
            dir_bytes[dir] += take * kPageSize;
            dir_last[dir] = b.pages.back().second;
            scheduled += take;

            if (dir == 0) {
                stats_.promoted_bytes += take * kPageSize;
                stats_.promoted_pages += take;
                for (unsigned l = src; l-- > d;)
                    link_bytes[0][l] += take * kPageSize;
            } else {
                stats_.demoted_bytes += take * kPageSize;
                stats_.demoted_pages += take;
                for (unsigned l = src; l < d; ++l)
                    link_bytes[1][l] += take * kPageSize;
            }
            run += take;
            if (dest_full)
                break;
        }
        i = j;
    }
    if (scheduled > 0)
        pushBatch(std::move(b));
    else
        batch_pool_.push_back(std::move(b));
    // One event per batch and direction (matching the one-transfer cost
    // model), not per page — keeps the ring proportional to decisions,
    // not volume.
    if (telemetry_ && dir_bytes[0] > 0)
        noteMigrationEvent(true, ready, dir_last[0], dir_bytes[0],
                           dir_first[0]);
    if (telemetry_ && dir_bytes[1] > 0)
        noteMigrationEvent(false, ready, dir_last[1], dir_bytes[1],
                           dir_first[1]);
    if (attr_ && scheduled > 0) {
        for (unsigned l = 0; l < numLinks(); ++l) {
            if (link_bytes[0][l] > 0)
                attr_->noteMigration(l, true, link_bytes[0][l]);
            if (link_bytes[1][l] > 0)
                attr_->noteMigration(l, false, link_bytes[1][l]);
        }
    }
    return scheduled;
}

void
HeterogeneousMemory::noteMigrationEvent(bool promote, Tick ready,
                                        Tick arrival, std::uint64_t bytes,
                                        std::uint32_t first_page)
{
    if (promote) {
        telemetry_->emit(telemetry::EventType::Promotion, ready,
                         arrival - ready, bytes, first_page);
        promoted_ctr_->add(bytes);
    } else {
        telemetry_->emit(telemetry::EventType::Demotion, ready,
                         arrival - ready, bytes, first_page);
        demoted_ctr_->add(bytes);
    }
}

void
HeterogeneousMemory::setTelemetry(telemetry::Session *session)
{
    telemetry_ = session;
    if (session) {
        promoted_ctr_ = &session->metrics().counter("mem.promoted_bytes");
        demoted_ctr_ = &session->metrics().counter("mem.demoted_bytes");
    } else {
        promoted_ctr_ = nullptr;
        demoted_ctr_ = nullptr;
    }
}

void
HeterogeneousMemory::setMigrationBandwidthScale(double promote, double demote)
{
    SENTINEL_ASSERT(promote > 0.0 && demote > 0.0,
                    "bandwidth scales must be positive");
    for (Link &l : links_) {
        l.up.setBandwidth(l.base_up_bw * promote);
        l.down.setBandwidth(l.base_down_bw * demote);
    }
}

void
HeterogeneousMemory::setTierCapacityScale(unsigned tier_idx, double scale)
{
    SENTINEL_ASSERT(scale > 0.0, "capacity scale must be positive");
    SENTINEL_ASSERT(tier_idx < numTiers(),
                    "capacity scale for tier %u of a %u-tier chain",
                    tier_idx, numTiers());
    std::uint64_t cap = static_cast<std::uint64_t>(
        static_cast<double>(base_capacity_[tier_idx]) * scale);
    // Keep whole pages so reservation arithmetic stays page-granular.
    tiers_[tier_idx].setCapacity(cap / kPageSize * kPageSize);
}

void
HeterogeneousMemory::stallMigration(Tick now, Tick promote_for,
                                    Tick demote_for)
{
    for (Link &l : links_) {
        if (promote_for > 0)
            l.up.blockUntil(now + promote_for);
        if (demote_for > 0)
            l.down.blockUntil(now + demote_for);
    }
}

bool
HeterogeneousMemory::teleportPage(PageId page, Tier dst, Tick now)
{
    commitUpTo(now);
    const PageEntry &e = table_.entry(page);
    if (e.in_flight)
        return false; // let the transfer land first
    if (e.tier == dst)
        return true;
    if (!tier(dst).tryReserve(kPageSize))
        return false;
    Tier src = e.tier;
    // Instant flip: begin+commit with an immediate arrival.
    std::uint64_t seq = table_.beginMigration(page, dst, now);
    bool ok = table_.commitMigration(page, seq);
    SENTINEL_ASSERT(ok, "teleport commit failed");
    tier(src).release(kPageSize);
    return true;
}

void
HeterogeneousMemory::drainArrivals(Tick now)
{
    while (!pending_.empty() && pending_.front().next_arrival <= now) {
        std::pop_heap(pending_.begin(), pending_.end(), BatchLater{});
        PendingBatch &b = pending_.back();
        const std::uint32_t n = static_cast<std::uint32_t>(b.pages.size());
        while (b.cursor < n && b.pages[b.cursor].second <= now) {
            // Commit consecutive arrived pages as one run; batch pages
            // are ascending, so stretches are common.  A stretch stops
            // at a source-tier boundary so the release below frees the
            // right tier.
            std::uint32_t k = b.cursor + 1;
            while (k < n && b.pages[k].second <= now &&
                   b.pages[k].first == b.pages[k - 1].first + 1 &&
                   b.src[k] == b.src[b.cursor])
                ++k;
            std::uint64_t committed = table_.commitMigrationRun(
                b.pages[b.cursor].first, k - b.cursor, b.seq0 + b.cursor);
            // Committed pages now live at b.dst; free their old homes.
            // A failed commit means the page was freed or the migration
            // was cancelled; unmapPage()/cancel paths already released
            // the destination reservation in that case.
            if (committed > 0)
                tier(makeTier(b.src[b.cursor]))
                    .release(committed * kPageSize);
            b.cursor = k;
        }
        if (b.cursor < n) {
            b.next_arrival = b.pages[b.cursor].second;
            std::push_heap(pending_.begin(), pending_.end(), BatchLater{});
        } else {
            batch_pool_.push_back(std::move(b));
            pending_.pop_back();
        }
    }
    next_arrival_ =
        pending_.empty() ? kNoArrival : pending_.front().next_arrival;
}

const TierParams &
HeterogeneousMemory::tierParams(Tier t) const
{
    return tier(t).params();
}

void
HeterogeneousMemory::reset()
{
    for (MemoryTier &t : tiers_)
        t.reset();
    for (Link &l : links_) {
        l.up.reset();
        l.down.reset();
    }
    table_.clear();
    for (PendingBatch &b : pending_)
        batch_pool_.push_back(std::move(b));
    pending_.clear();
    next_arrival_ = kNoArrival;
    stats_ = HmStats{};
}

} // namespace sentinel::mem
