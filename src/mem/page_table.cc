#include "mem/page_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/logging.hh"

namespace sentinel::mem {

namespace {

/**
 * Number of leading bytes of s[0, n) equal to @p v.  Word-wide: eight
 * state bytes per compare, with countr_zero picking the first
 * mismatching byte.  Every extent walk funnels through this scan, so
 * the byte loop only handles the tail.
 */
std::uint64_t
matchingPrefix(const std::uint8_t *s, std::uint64_t n, std::uint8_t v)
{
    const std::uint64_t pat = 0x0101010101010101ull * v;
    std::uint64_t i = 0;
    while (i + 8 <= n) {
        std::uint64_t w;
        std::memcpy(&w, s + i, 8);
        if (w != pat)
            return i + static_cast<std::uint64_t>(std::countr_zero(w ^ pat)) /
                           8;
        i += 8;
    }
    while (i < n && s[i] == v)
        ++i;
    return i;
}

} // namespace

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

PageTable::UnmapCounts
PageTable::unmapRange(PageId first, std::uint64_t count)
{
    UnmapCounts out;
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
            if (s[i] & kStateFlightBit) {
                ++inflight;
                ++out.dest[ch.dest[off + i]];
            }
        }
        std::memset(s, kStateUnmapped, in_chunk);
        ch.mapped -= static_cast<std::uint32_t>(in_chunk);
        for (unsigned t = 0; t < kMaxTiers; ++t) {
            ch.tiers[t] -= tiers[t];
            out.src[t] += tiers[t];
        }
        ch.inflight -= inflight;
        num_inflight_ -= inflight;
        num_mapped_ -= in_chunk;
        p += in_chunk;
        left -= in_chunk;
    }
    return out;
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
            const std::uint8_t *s = c->state.get() + off;
            const std::uint64_t i = matchingPrefix(s, in_chunk, s0);
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

std::uint64_t
PageTable::beginMigrationRun(PageId first, std::uint64_t count, Tier dest,
                             Tick arrival0, Tick step)
{
    SENTINEL_ASSERT(count > 0, "empty migration run");
    const std::uint64_t seq0 = next_seq_;
    const std::uint8_t d = static_cast<std::uint8_t>(tierIndex(dest));
    std::uint8_t s0 = kStateUnmapped;
    Tick arrival = arrival0;
    PageId p = first;
    std::uint64_t left = count;
    while (left > 0) {
        const Chunk *c = findChunk(p);
        SENTINEL_ASSERT(c, "access to unmapped page %llu",
                        static_cast<unsigned long long>(p));
        Chunk &ch = const_cast<Chunk &>(*c);
        ensureCold(ch);
        const std::uint64_t off = p & kChunkMask;
        const std::uint64_t in_chunk =
            std::min<std::uint64_t>(left, kChunkPages - off);
        std::uint8_t *s = ch.state.get() + off;
        if (p == first) {
            s0 = s[0];
            SENTINEL_ASSERT(s0 != kStateUnmapped,
                            "access to unmapped page %llu",
                            static_cast<unsigned long long>(p));
            SENTINEL_ASSERT(!flightOf(s0), "page %llu is already migrating",
                            static_cast<unsigned long long>(p));
            SENTINEL_ASSERT(tierOf(s0) != dest, "migration to the same tier");
        }
        // One check per chunk: the run must be one idle tier throughout.
        SENTINEL_ASSERT(matchingPrefix(s, in_chunk, s0) == in_chunk,
                        "migration run at %llu is not one idle tier",
                        static_cast<unsigned long long>(p));
        std::memset(s, s0 | kStateFlightBit, in_chunk);
        std::memset(ch.dest.get() + off, d, in_chunk);
        std::iota(ch.seq.get() + off, ch.seq.get() + off + in_chunk,
                  next_seq_);
        next_seq_ += in_chunk;
        Tick *a = ch.arrival.get() + off;
        for (std::uint64_t k = 0; k < in_chunk; ++k)
            a[k] = arrival + static_cast<Tick>(k) * step;
        arrival += static_cast<Tick>(in_chunk) * step;
        ch.inflight += static_cast<std::uint32_t>(in_chunk);
        num_inflight_ += in_chunk;
        p += in_chunk;
        left -= in_chunk;
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
        if (!c || c->inflight == 0) { // chunk gone or idle: nothing lands
            k += in_chunk;
            continue;
        }
        Chunk &ch = const_cast<Chunk &>(*c);
        std::uint8_t *state = ch.state.get() + off;
        const std::uint64_t *seq = ch.seq.get() + off;
        const std::uint8_t *dest = ch.dest.get() + off;
        const std::uint64_t want = seq0 + k;
        // Deltas stay in locals: stores through the state bytes would
        // otherwise alias the chunk counters on every page.
        std::uint32_t delta[kMaxTiers] = {};
        std::uint32_t landed = 0;
        for (std::uint64_t m = 0; m < in_chunk; ++m) {
            const std::uint8_t s = state[m];
            if (s == kStateUnmapped || !flightOf(s) || seq[m] != want + m)
                continue; // freed, or remapped and superseded
            state[m] = dest[m];
            --delta[s & kStateTierMask];
            ++delta[dest[m]];
            ++landed;
        }
        for (unsigned t = 0; t < kMaxTiers; ++t)
            ch.tiers[t] += delta[t];
        ch.inflight -= landed;
        num_inflight_ -= landed;
        done += landed;
        k += in_chunk;
    }
    return done;
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
