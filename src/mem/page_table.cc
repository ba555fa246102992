#include "mem/page_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace sentinel::mem {

PageTable::Chunk &
PageTable::chunkFor(PageId page)
{
    SENTINEL_ASSERT(page < kMaxPages, "page %llu beyond dense table range",
                    static_cast<unsigned long long>(page));
    std::uint64_t c = page >> kChunkBits;
    if (c >= chunks_.size())
        chunks_.resize(c + 1);
    Chunk &ch = chunks_[c];
    if (ch.epoch != epoch_) {
        // Stale (or fresh) chunk: recycle it lazily on first touch of
        // the new epoch.  Cold arrays may keep stale values — they are
        // only read under the in-flight bit, which this reset clears.
        if (!ch.state)
            ch.state = std::make_unique<std::uint8_t[]>(kChunkPages);
        std::memset(ch.state.get(), kStateUnmapped, kChunkPages);
        ch.mapped = ch.inflight = 0;
        std::memset(ch.tiers, 0, sizeof(ch.tiers));
        ch.epoch = epoch_;
    }
    return ch;
}

void
PageTable::ensureCold(Chunk &ch)
{
    if (!ch.arrival) {
        ch.arrival = std::make_unique<Tick[]>(kChunkPages);
        ch.seq = std::make_unique<std::uint64_t[]>(kChunkPages);
        ch.dest = std::make_unique<std::uint8_t[]>(kChunkPages);
    }
}

void
PageTable::map(PageId page, Tier tier)
{
    Chunk &ch = chunkFor(page);
    std::uint8_t &s = ch.state[page & kChunkMask];
    SENTINEL_ASSERT(s == kStateUnmapped, "page %llu already mapped",
                    static_cast<unsigned long long>(page));
    s = stateByte(tier, false);
    ++ch.mapped;
    ++ch.tiers[tierIndex(tier)];
    ++num_mapped_;
}

void
PageTable::mapRange(PageId first, std::uint64_t count, Tier tier)
{
    const std::uint8_t val = stateByte(tier, false);
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        Chunk &ch = chunkFor(p);
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        std::uint8_t *s = ch.state.get() + off;
        for (std::uint64_t i = 0; i < in_chunk; ++i)
            SENTINEL_ASSERT(s[i] == kStateUnmapped,
                            "page %llu already mapped",
                            static_cast<unsigned long long>(p + i));
        std::memset(s, val, in_chunk);
        ch.mapped += static_cast<std::uint32_t>(in_chunk);
        ch.tiers[tierIndex(tier)] += static_cast<std::uint32_t>(in_chunk);
        num_mapped_ += in_chunk;
        p += in_chunk;
        left -= in_chunk;
    }
}

void
PageTable::unmap(PageId page)
{
    const Chunk *c = findChunk(page);
    SENTINEL_ASSERT(c && c->state[page & kChunkMask] != kStateUnmapped,
                    "unmap of unmapped page %llu",
                    static_cast<unsigned long long>(page));
    Chunk &ch = const_cast<Chunk &>(*c);
    std::uint8_t &s = ch.state[page & kChunkMask];
    --ch.mapped;
    --ch.tiers[s & kStateTierMask];
    if (s & kStateFlightBit) {
        --ch.inflight;
        --num_inflight_;
    }
    s = kStateUnmapped;
    --num_mapped_;
}

void
PageTable::unmapRange(PageId first, std::uint64_t count)
{
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        const Chunk *c = findChunk(p);
        SENTINEL_ASSERT(c, "unmap of unmapped page %llu",
                        static_cast<unsigned long long>(p));
        Chunk &ch = const_cast<Chunk &>(*c);
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        std::uint8_t *s = ch.state.get() + off;
        std::uint32_t tiers[kMaxTiers] = {};
        std::uint32_t inflight = 0;
        for (std::uint64_t i = 0; i < in_chunk; ++i) {
            SENTINEL_ASSERT(s[i] != kStateUnmapped,
                            "unmap of unmapped page %llu",
                            static_cast<unsigned long long>(p + i));
            ++tiers[s[i] & kStateTierMask];
            inflight += (s[i] & kStateFlightBit) ? 1 : 0;
        }
        std::memset(s, kStateUnmapped, in_chunk);
        ch.mapped -= static_cast<std::uint32_t>(in_chunk);
        for (unsigned t = 0; t < kMaxTiers; ++t)
            ch.tiers[t] -= tiers[t];
        ch.inflight -= inflight;
        num_inflight_ -= inflight;
        num_mapped_ -= in_chunk;
        p += in_chunk;
        left -= in_chunk;
    }
}

bool
PageTable::isMapped(PageId page) const
{
    const Chunk *c = findChunk(page);
    return c && c->state[page & kChunkMask] != kStateUnmapped;
}

PageEntry
PageTable::entry(PageId page) const
{
    const Chunk *c = findChunk(page);
    SENTINEL_ASSERT(c && c->state[page & kChunkMask] != kStateUnmapped,
                    "entry() of unmapped page %llu",
                    static_cast<unsigned long long>(page));
    std::uint64_t off = page & kChunkMask;
    std::uint8_t s = c->state[off];
    PageEntry e;
    e.tier = tierOf(s);
    e.in_flight = flightOf(s);
    // The cold arrays hold dest/arrival/seq only while the in-flight
    // bit is set; an idle page's destination is its own tier.
    e.dest = (e.in_flight && c->dest) ? makeTier(c->dest[off]) : e.tier;
    e.arrival = (e.in_flight && c->arrival) ? c->arrival[off] : 0;
    e.seq = c->seq ? c->seq[off] : 0;
    return e;
}

PageRunState
PageTable::runState(PageId first, std::uint64_t count) const
{
    SENTINEL_ASSERT(count > 0, "runState() of empty range");
    // One chunk at a time.  A chunk whose summary counters say
    // "every mapped page matches the run state" extends the run by the
    // whole sub-range without touching the state bytes (the caller
    // guarantees the range is mapped); mixed chunks fall back to a
    // linear byte scan.
    const Chunk *c0 = findChunk(first);
    SENTINEL_ASSERT(c0 && c0->state[first & kChunkMask] != kStateUnmapped,
                    "runState() over unmapped page %llu",
                    static_cast<unsigned long long>(first));
    const std::uint8_t s0 = c0->state[first & kChunkMask];
    PageRunState rs{ tierOf(s0), flightOf(s0), 1 };

    PageId p = first + 1;
    std::uint64_t left = count - 1;
    while (left > 0) {
        const Chunk *c = findChunk(p);
        SENTINEL_ASSERT(c, "runState() over unmapped page %llu",
                        static_cast<unsigned long long>(p));
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        bool uniform = false;
        if (c->inflight == 0 && !flightOf(s0))
            uniform = c->tiers[s0 & kStateTierMask] == c->mapped;
        if (uniform) {
            rs.count += in_chunk;
        } else {
            // Word-wide run scan: eight state bytes per compare, with
            // countr_zero picking the first mismatching byte.  This
            // loop is the hottest in the simulator (every extent walk
            // funnels through it), so the byte loop only handles the
            // tail.
            const std::uint8_t *s = c->state.get() + off;
            const std::uint64_t pat = 0x0101010101010101ull * s0;
            std::uint64_t i = 0;
            while (i + 8 <= in_chunk) {
                std::uint64_t w;
                std::memcpy(&w, s + i, 8);
                if (w != pat) {
                    i += static_cast<std::uint64_t>(
                             std::countr_zero(w ^ pat)) /
                         8;
                    break;
                }
                i += 8;
            }
            while (i < in_chunk && s[i] == s0)
                ++i;
            rs.count += i;
            if (i < in_chunk) {
                SENTINEL_ASSERT(s[i] != kStateUnmapped,
                                "runState() over unmapped page %llu",
                                static_cast<unsigned long long>(p + i));
                return rs;
            }
        }
        p += in_chunk;
        left -= in_chunk;
    }
    return rs;
}

bool
PageTable::anyInFlight(PageId first, std::uint64_t count) const
{
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        const Chunk *c = findChunk(p);
        SENTINEL_ASSERT(c, "anyInFlight() over unmapped page %llu",
                        static_cast<unsigned long long>(p));
        std::uint64_t off = p & kChunkMask;
        std::uint64_t in_chunk = std::min<std::uint64_t>(left,
                                                         kChunkPages - off);
        if (c->inflight > 0) {
            const std::uint8_t *s = c->state.get() + off;
            for (std::uint64_t i = 0; i < in_chunk; ++i) {
                SENTINEL_ASSERT(s[i] != kStateUnmapped,
                                "anyInFlight() over unmapped page %llu",
                                static_cast<unsigned long long>(p + i));
                if (s[i] & kStateFlightBit)
                    return true;
            }
        }
        p += in_chunk;
        left -= in_chunk;
    }
    return false;
}

std::uint64_t
PageTable::beginMigration(PageId page, Tier dest, Tick arrival)
{
    const Chunk *c = findChunk(page);
    SENTINEL_ASSERT(c && c->state[page & kChunkMask] != kStateUnmapped,
                    "access to unmapped page %llu",
                    static_cast<unsigned long long>(page));
    Chunk &ch = const_cast<Chunk &>(*c);
    std::uint64_t off = page & kChunkMask;
    std::uint8_t &s = ch.state[off];
    SENTINEL_ASSERT(!flightOf(s), "page %llu is already migrating",
                    static_cast<unsigned long long>(page));
    SENTINEL_ASSERT(tierOf(s) != dest, "migration to the same tier");
    ensureCold(ch);
    s |= kStateFlightBit;
    ++ch.inflight;
    ++num_inflight_;
    ch.arrival[off] = arrival;
    ch.seq[off] = next_seq_++;
    ch.dest[off] = static_cast<std::uint8_t>(tierIndex(dest));
    return ch.seq[off];
}

bool
PageTable::commitMigration(PageId page, std::uint64_t seq)
{
    const Chunk *c = findChunk(page);
    if (!c)
        return false; // freed while in flight
    std::uint64_t off = page & kChunkMask;
    std::uint8_t s = c->state[off];
    if (s == kStateUnmapped || !flightOf(s) || c->seq[off] != seq)
        return false; // freed, cancelled, or superseded
    Chunk &ch = const_cast<Chunk &>(*c);
    // Arrive at the recorded destination tier, clear in-flight.
    std::uint8_t landed = ch.dest[off];
    ch.state[off] = landed;
    --ch.tiers[s & kStateTierMask];
    ++ch.tiers[landed & kStateTierMask];
    --ch.inflight;
    --num_inflight_;
    return true;
}

std::uint64_t
PageTable::beginMigrationRun(std::span<const std::pair<PageId, Tick>> run,
                             Tier dest)
{
    SENTINEL_ASSERT(!run.empty(), "empty migration run");
    const std::uint64_t seq0 = next_seq_;
    std::size_t i = 0;
    while (i < run.size()) {
        const PageId page = run[i].first;
        const Chunk *c = findChunk(page);
        SENTINEL_ASSERT(c, "access to unmapped page %llu",
                        static_cast<unsigned long long>(page));
        Chunk &ch = const_cast<Chunk &>(*c);
        ensureCold(ch);
        const std::uint64_t off = page & kChunkMask;
        const std::uint64_t in_chunk =
            std::min<std::uint64_t>(run.size() - i, kChunkPages - off);
        for (std::uint64_t k = 0; k < in_chunk; ++k) {
            SENTINEL_ASSERT(run[i + k].first == page + k,
                            "migration run is not consecutive at %llu",
                            static_cast<unsigned long long>(page + k));
            std::uint8_t &s = ch.state[off + k];
            SENTINEL_ASSERT(s != kStateUnmapped,
                            "access to unmapped page %llu",
                            static_cast<unsigned long long>(page + k));
            SENTINEL_ASSERT(!flightOf(s), "page %llu is already migrating",
                            static_cast<unsigned long long>(page + k));
            SENTINEL_ASSERT(tierOf(s) != dest, "migration to the same tier");
            s |= kStateFlightBit;
            ch.arrival[off + k] = run[i + k].second;
            ch.seq[off + k] = next_seq_++;
            ch.dest[off + k] = static_cast<std::uint8_t>(tierIndex(dest));
        }
        ch.inflight += static_cast<std::uint32_t>(in_chunk);
        num_inflight_ += in_chunk;
        i += in_chunk;
    }
    return seq0;
}

std::uint64_t
PageTable::commitMigrationRun(PageId first, std::uint64_t count,
                              std::uint64_t seq0)
{
    std::uint64_t done = 0;
    std::uint64_t k = 0;
    while (k < count) {
        const PageId page = first + k;
        const std::uint64_t off = page & kChunkMask;
        const std::uint64_t in_chunk =
            std::min<std::uint64_t>(count - k, kChunkPages - off);
        const Chunk *c = findChunk(page);
        if (!c) { // whole chunk freed while in flight
            k += in_chunk;
            continue;
        }
        Chunk &ch = const_cast<Chunk &>(*c);
        for (std::uint64_t m = 0; m < in_chunk; ++m) {
            std::uint8_t s = ch.state[off + m];
            if (s == kStateUnmapped || !flightOf(s) ||
                ch.seq[off + m] != seq0 + k + m)
                continue; // freed, cancelled, or superseded
            std::uint8_t landed = ch.dest[off + m];
            ch.state[off + m] = landed;
            --ch.tiers[s & kStateTierMask];
            ++ch.tiers[landed & kStateTierMask];
            --ch.inflight;
            --num_inflight_;
            ++done;
        }
        k += in_chunk;
    }
    return done;
}

void
PageTable::cancelMigration(PageId page)
{
    const Chunk *c = findChunk(page);
    SENTINEL_ASSERT(c && c->state[page & kChunkMask] != kStateUnmapped,
                    "access to unmapped page %llu",
                    static_cast<unsigned long long>(page));
    Chunk &ch = const_cast<Chunk &>(*c);
    std::uint8_t &s = ch.state[page & kChunkMask];
    SENTINEL_ASSERT(flightOf(s), "cancel of non-migrating page");
    s &= static_cast<std::uint8_t>(~kStateFlightBit);
    --ch.inflight;
    --num_inflight_;
}

void
PageTable::clear()
{
    num_mapped_ = 0;
    num_inflight_ = 0;
    // O(1) clear: bump the epoch; old chunks become stale and are
    // recycled (not re-allocated) on their next touch.  On the
    // (astronomically rare) wrap, drop the chunks so stale epochs
    // cannot alias the restarted counter.
    if (++epoch_ == 0) {
        chunks_.clear();
        epoch_ = 1;
    }
}

} // namespace sentinel::mem
