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
    // A run's arrival pieces per leg stay within a few per tier.
    legs_in_.reserve(4 * kMaxTiers);
    legs_out_.reserve(4 * kMaxTiers);
}

void
HeterogeneousMemory::mapRange(PageId first, std::uint64_t count,
                              Tier preferred)
{
    if (count == 0)
        return;
    // A preference beyond the chain's end clamps to the slowest tier.
    // Fill it, then spill the suffix: slower tiers nearest-first, then
    // back toward the faster ones (the two-tier "other tier" is the
    // n = 2 case of this walk).
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
HeterogeneousMemory::unmapRange(PageId first, std::uint64_t count, Tick now)
{
    commitUpTo(now);
    // Pages freed before their transfer landed give back the
    // destination reservation too; their pending commits find nothing.
    const PageTable::UnmapCounts freed = table_.unmapRange(first, count);
    for (unsigned t = 0; t < numTiers(); ++t)
        if (freed.src[t] + freed.dest[t] > 0)
            tiers_[t].release((freed.src[t] + freed.dest[t]) * kPageSize);
}

PageRunState
HeterogeneousMemory::residentRange(PageId first, std::uint64_t count,
                                   Tick now)
{
    commitUpTo(now);
    return table_.runState(first, count);
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
    fi.arrival = e.arrival;
    return fi;
}

void
HeterogeneousMemory::compactSegments()
{
    // Batches own disjoint slices of segs_; sliding them down in slice
    // order never overwrites a live segment.
    std::sort(pending_.begin(), pending_.end(),
              [](const PendingBatch &a, const PendingBatch &b) {
                  return a.cur < b.cur;
              });
    std::uint32_t w = 0;
    for (PendingBatch &b : pending_) {
        const std::uint32_t n = b.end - b.cur;
        std::copy(segs_.begin() + b.cur, segs_.begin() + b.end,
                  segs_.begin() + w);
        b.cur = w;
        b.end = w + n;
        w += n;
    }
    SENTINEL_ASSERT(w == live_segs_, "segment store lost track of %zu live "
                    "segments (found %u)", live_segs_, w);
    segs_.resize(w);
    std::make_heap(pending_.begin(), pending_.end(), BatchLater{});
}

Tick
HeterogeneousMemory::scheduleRun(PageId first, std::uint64_t count,
                                 unsigned src, unsigned dst, Tick ready,
                                 std::uint32_t &startup_paid)
{
    const bool up = dst < src;
    const unsigned hops = up ? src - dst : dst - src;
    // Every page is ready at `ready`; each leg turns the arrival
    // pieces of the previous one into its own completions.
    legs_in_.clear();
    legs_in_.push_back(sim::TransferSeries{ ready, 0, count });
    for (unsigned h = 0; h < hops; ++h) {
        const unsigned l = up ? src - 1 - h : src + h;
        const std::uint32_t bit = 1u << (2 * l + (up ? 0 : 1));
        sim::BandwidthChannel &ch = up ? links_[l].up : links_[l].down;
        Tick startup = (startup_paid & bit) ? 0 : ch.startupLatency();
        startup_paid |= bit;
        legs_out_.clear();
        for (const sim::TransferSeries &piece : legs_in_) {
            ch.submitSeries(piece, kPageSize, startup, legs_out_);
            startup = 0;
        }
        legs_in_.swap(legs_out_);
    }
    PageId p = first;
    for (const sim::TransferSeries &piece : legs_in_) {
        const std::uint64_t seq0 = table_.beginMigrationRun(
            p, piece.count, makeTier(dst), piece.first, piece.step);
        segs_.push_back(Segment{ p, piece.count, piece.first, piece.step,
                                 seq0, static_cast<std::uint8_t>(src) });
        p += piece.count;
    }
    live_segs_ += legs_in_.size();
    return legs_in_.back().last();
}

std::size_t
HeterogeneousMemory::migratePages(std::span<const PageRun> runs, Tier dst,
                                  Tick ready)
{
    commitUpTo(ready);
    // Clamp to the chain (a single-tier system's "demote to slow"
    // becomes a no-op below: every page is already in the only tier).
    const unsigned d = std::min(tierIndex(dst), numTiers() - 1);
    dst = makeTier(d);
    const std::size_t seg0 = openBatch();
    MemoryTier &dest = tier(dst);
    std::size_t scheduled = 0;
    std::uint32_t startup_paid = 0;
    // Per-direction batch telemetry (a batch migrating to a MIDDLE
    // tier can mix promotes and demotes); per-link attribution bytes.
    std::uint64_t dir_bytes[2] = { 0, 0 };      // [promote, demote]
    Tick dir_last[2] = { ready, ready };
    std::uint32_t dir_first[2] = { 0, 0 };
    std::uint64_t link_bytes[2][kMaxTiers] = {};
    // Query the table once per uniform (tier, in-flight) stretch of
    // each run; eligible stretches reserve, schedule, and begin
    // migration in bulk.
    bool dest_full = false;
    for (const PageRun &run : runs) {
        PageId p = run.first;
        const PageId end = run.endPage();
        while (p < end && !dest_full) {
            PageRunState rs = table_.runState(p, end - p);
            if (rs.in_flight || rs.tier == dst) {
                p += rs.count;
                continue;
            }
            // Destination nearly full: claim what fits, then let the
            // caller retry later.
            const std::uint64_t take =
                std::min<std::uint64_t>(rs.count, dest.free() / kPageSize);
            dest_full = take < rs.count;
            if (take == 0)
                break;
            bool ok = dest.tryReserve(take * kPageSize);
            SENTINEL_ASSERT(ok, "migration reservation failed");

            const unsigned src = tierIndex(rs.tier);
            const unsigned dir = d < src ? 0 : 1;
            const Tick last = scheduleRun(p, take, src, d, ready,
                                          startup_paid);
            if (dir_bytes[dir] == 0)
                dir_first[dir] = static_cast<std::uint32_t>(p);
            dir_bytes[dir] += take * kPageSize;
            dir_last[dir] = last;
            scheduled += take;
            noteMove(src, d, take, link_bytes);
            p += take;
        }
        if (dest_full)
            break;
    }
    if (scheduled > 0)
        queueBatch(seg0);
    // One event per batch and direction (matching the one-transfer cost
    // model), not per page — keeps the ring proportional to decisions,
    // not volume.
    if (telemetry_ && dir_bytes[0] > 0)
        noteMigrationEvent(true, ready, dir_last[0], dir_bytes[0],
                           dir_first[0]);
    if (telemetry_ && dir_bytes[1] > 0)
        noteMigrationEvent(false, ready, dir_last[1], dir_bytes[1],
                           dir_first[1]);
    if (attr_ && scheduled > 0)
        noteLinkBytes(link_bytes);
    return scheduled;
}

sim::TransferSeries
HeterogeneousMemory::faultSeries(PageId first, std::uint64_t count, Tier dst,
                                 Tick ready, Tick gap)
{
    commitUpTo(ready);
    const unsigned d = std::min(tierIndex(dst), numTiers() - 1);
    const PageRunState rs = table_.runState(first, count);
    const unsigned src = tierIndex(rs.tier);
    SENTINEL_ASSERT(count > 0 && rs.count == count && !rs.in_flight &&
                        src != d && gap >= 0,
                    "fault series of %llu pages at %llu is not one idle "
                    "run off its destination",
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(first));
    bool ok = tiers_[d].tryReserve(count * kPageSize);
    SENTINEL_ASSERT(ok, "fault series reservation failed");

    // Page 0 queues on every leg like a one-page batch.  Every later
    // page is issued gap after its predecessor lands, when every leg
    // is idle again, so it crosses them in their summed startup plus
    // transfer time: the arrivals are one arithmetic series.
    const bool up = d < src;
    const unsigned hops = up ? src - d : d - src;
    auto leg = [&](unsigned h) -> sim::BandwidthChannel & {
        const unsigned l = up ? src - 1 - h : src + h;
        return up ? links_[l].up : links_[l].down;
    };
    Tick a0 = ready;
    Tick step = gap;
    for (unsigned h = 0; h < hops; ++h) {
        sim::BandwidthChannel &ch = leg(h);
        a0 = ch.submit(a0, kPageSize);
        step += ch.startupLatency() + transferTime(kPageSize, ch.bandwidth());
    }
    sim::TransferSeries rest{ a0 + gap, step, count - 1 };
    for (unsigned h = 0; h < hops && rest.count > 0; ++h) {
        sim::BandwidthChannel &ch = leg(h);
        rest = ch.submitSpaced(rest, kPageSize, ch.startupLatency());
    }
    const sim::TransferSeries arrivals{ a0, step, count };

    const std::size_t seg0 = openBatch();
    const std::uint64_t seq0 =
        table_.beginMigrationRun(first, count, makeTier(d), a0, step);
    segs_.push_back(Segment{ first, count, a0, step, seq0,
                             static_cast<std::uint8_t>(src) });
    ++live_segs_;
    queueBatch(seg0);

    std::uint64_t link_bytes[2][kMaxTiers] = {};
    noteMove(src, d, count, link_bytes);
    if (telemetry_)
        noteMigrationEvent(up, ready, arrivals.last(), count * kPageSize,
                           static_cast<std::uint32_t>(first));
    if (attr_)
        noteLinkBytes(link_bytes);
    // The faulting clock reaches the last page's issue before anything
    // else runs: leave what the page-by-page faults would have left.
    if (count > 1)
        commitUpTo(arrivals.at(count - 2) + gap);
    return arrivals;
}

std::size_t
HeterogeneousMemory::openBatch()
{
    if (pending_.empty())
        segs_.clear();
    else if (segs_.size() > 2 * live_segs_ + 64)
        compactSegments();
    return segs_.size();
}

void
HeterogeneousMemory::queueBatch(std::size_t seg0)
{
    pending_.push_back(PendingBatch{
        segs_[seg0].a0, static_cast<std::uint32_t>(seg0),
        static_cast<std::uint32_t>(segs_.size()) });
    std::push_heap(pending_.begin(), pending_.end(), BatchLater{});
    next_arrival_ = pending_.front().next_arrival;
}

void
HeterogeneousMemory::noteMove(unsigned src, unsigned dst, std::uint64_t pages,
                              std::uint64_t (&link_bytes)[2][kMaxTiers])
{
    const std::uint64_t bytes = pages * kPageSize;
    if (dst < src) {
        stats_.promoted_bytes += bytes;
        stats_.promoted_pages += pages;
        for (unsigned l = src; l-- > dst;)
            link_bytes[0][l] += bytes;
    } else {
        stats_.demoted_bytes += bytes;
        stats_.demoted_pages += pages;
        for (unsigned l = src; l < dst; ++l)
            link_bytes[1][l] += bytes;
    }
}

void
HeterogeneousMemory::noteLinkBytes(
    const std::uint64_t (&link_bytes)[2][kMaxTiers])
{
    for (unsigned l = 0; l < numLinks(); ++l) {
        if (link_bytes[0][l] > 0)
            attr_->noteMigration(l, true, link_bytes[0][l]);
        if (link_bytes[1][l] > 0)
            attr_->noteMigration(l, false, link_bytes[1][l]);
    }
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
    // Instant flip: a one-page begin+commit with an immediate arrival.
    std::uint64_t seq = table_.beginMigrationRun(page, 1, dst, now, 0);
    bool ok = table_.commitMigrationRun(page, 1, seq) == 1;
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
        // Pages land in batch order: a segment commits the prefix that
        // has arrived, and the next one waits until it is exhausted.
        while (b.cur < b.end) {
            Segment &sg = segs_[b.cur];
            if (sg.a0 > now)
                break;
            const std::uint64_t n =
                sg.step == 0
                    ? sg.count
                    : std::min<std::uint64_t>(
                          sg.count,
                          static_cast<std::uint64_t>((now - sg.a0) /
                                                     sg.step) +
                              1);
            // A page that was freed or re-migrated while in flight does
            // not commit; the unmap already released its reservations.
            const std::uint64_t committed =
                table_.commitMigrationRun(sg.first, n, sg.seq0);
            if (committed > 0)
                tiers_[sg.src].release(committed * kPageSize);
            if (n < sg.count) {
                sg.first += n;
                sg.count -= n;
                sg.a0 += static_cast<Tick>(n) * sg.step;
                sg.seq0 += n;
                break;
            }
            ++b.cur;
            --live_segs_;
        }
        if (b.cur < b.end) {
            b.next_arrival = segs_[b.cur].a0;
            std::push_heap(pending_.begin(), pending_.end(), BatchLater{});
        } else {
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
    pending_.clear();
    segs_.clear();
    live_segs_ = 0;
    next_arrival_ = kNoArrival;
    stats_ = HmStats{};
}

} // namespace sentinel::mem
