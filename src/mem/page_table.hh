/**
 * @file
 * Virtual page -> tier mapping, including in-flight migration state.
 *
 * Every operation takes a page run [first, first+count): map, unmap,
 * the uniform-prefix query, begin and commit of a migration.  A single
 * page is the one-page run; entry() is the only per-page read, for
 * tests and one-page callers that need a migration's destination and
 * arrival.  A page that is migrating remains readable at its source
 * tier until the migration engine's transfer completes (arrival
 * tick); the HeterogeneousMemory facade lazily commits arrivals as
 * simulated time advances.
 *
 * Storage is struct-of-arrays chunks.  The hot state of a page (tier +
 * in-flight bit) is ONE byte in a per-chunk state array, so lookups are
 * two loads and range walks are byte scans.  Cold migration state
 * (arrival tick, commit-guard sequence) lives in separate per-chunk
 * arrays allocated only once a chunk sees its first migration.  Each
 * chunk also carries summary counters (mapped / per-tier / in-flight
 * page counts), which answer the dominant runState() query — "is this
 * whole range uniform?" — in O(chunks) instead of O(pages).
 * Mapped-ness is tracked with a per-chunk epoch so clear() is O(1).
 * tests/support/ref_page_table.hh holds a std::map model of the same
 * contract that the randomized differential test checks against.
 */

#ifndef SENTINEL_MEM_PAGE_TABLE_HH
#define SENTINEL_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"

namespace sentinel::mem {

/** Per-page state (a composed view of the SoA chunk arrays). */
struct PageEntry {
    Tier tier = Tier::Slow;     ///< current (source) tier
    bool in_flight = false;     ///< migration scheduled, not yet arrived
    Tier dest = Tier::Slow;     ///< destination while in flight
    Tick arrival = 0;           ///< completion time while in flight
    std::uint64_t seq = 0;      ///< migration epoch, guards stale commits
};

static_assert(kMaxTiers <= 8, "tier index must fit the 3 state bits");

/**
 * State of the maximal uniform prefix of a page range: @c count leading
 * pages that share one (tier, in_flight) state.
 */
struct PageRunState {
    Tier tier = Tier::Slow;
    bool in_flight = false;
    std::uint64_t count = 0;
};

/** A flat map of mapped pages. */
class PageTable
{
  public:
    /** Map [first, first+count) into @p tier; none may be mapped. */
    void mapRange(PageId first, std::uint64_t count, Tier tier);

    /** What unmapRange() removed, in pages per tier index. */
    struct UnmapCounts {
        /** Pages by resident (source, for in-flight pages) tier. */
        std::uint64_t src[kMaxTiers] = {};
        /** In-flight pages by destination tier. */
        std::uint64_t dest[kMaxTiers] = {};
    };

    /**
     * Remove [first, first+count); all must be mapped.  Pages still in
     * flight are dropped with their migration, whose commit then finds
     * nothing.  One pass over the state bytes.
     */
    UnmapCounts unmapRange(PageId first, std::uint64_t count);

    bool isMapped(PageId page) const;

    /** Entry for @p page (must be mapped), composed from the SoA
     *  arrays: dest/arrival are meaningful only while in_flight. */
    PageEntry entry(PageId page) const;

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state.  All pages must be mapped.
     */
    PageRunState runState(PageId first, std::uint64_t count) const;

    /**
     * Begin migrating [first, first+count) to @p dest; page first+i
     * arrives at @p arrival0 + i * @p step.  Every page must be mapped,
     * idle, and share one resident tier other than @p dest — i.e. a
     * uniform eligible runState() prefix.  Sequence numbers are
     * contiguous: page first+i gets @return + i.
     */
    std::uint64_t beginMigrationRun(PageId first, std::uint64_t count,
                                    Tier dest, Tick arrival0, Tick step);

    /**
     * Commit the consecutive run [first, first+count), where page
     * first+i carries sequence @p seq0 + i.  A page freed while in
     * flight, or remapped and migrated again since, no longer carries
     * its sequence and is skipped: a stale commit never flips a page.
     * @return the number of pages that actually flipped tiers.
     */
    std::uint64_t commitMigrationRun(PageId first, std::uint64_t count,
                                     std::uint64_t seq0);

    std::size_t numMapped() const { return num_mapped_; }

    /** Mapped pages with a migration still pending. */
    std::size_t numInFlight() const { return num_inflight_; }

    void clear();

  private:
    /**
     * Chunk geometry: 2^16 pages (64 KiB of state bytes) per chunk
     * keeps the directory small even for the policies that place
     * tensors at multi-TiB virtual bases, while one tensor's pages stay
     * within a handful of chunks.
     */
    static constexpr unsigned kChunkBits = 16;
    static constexpr std::uint64_t kChunkPages = 1ull << kChunkBits;
    static constexpr std::uint64_t kChunkMask = kChunkPages - 1;
    /** 2^36 pages = a 256 TiB virtual space; bounds directory growth. */
    static constexpr std::uint64_t kMaxPages = 1ull << 36;

    // Hot per-page state, one byte: bits 0-2 = resident tier index
    // (fastest-first chain position), bit 3 = migration in flight,
    // 0xFF = unmapped.
    static constexpr std::uint8_t kStateUnmapped = 0xFF;
    static constexpr std::uint8_t kStateTierMask = 0x07;
    static constexpr std::uint8_t kStateFlightBit = 0x08;

    static constexpr std::uint8_t
    stateByte(Tier t, bool in_flight)
    {
        return static_cast<std::uint8_t>(
            (tierIndex(t) & kStateTierMask) |
            (in_flight ? kStateFlightBit : 0));
    }
    static constexpr Tier
    tierOf(std::uint8_t s)
    {
        return makeTier(s & kStateTierMask);
    }
    static constexpr bool
    flightOf(std::uint8_t s)
    {
        return (s & kStateFlightBit) != 0;
    }

    struct Chunk {
        /** Chunk contents are valid iff epoch == PageTable::epoch_. */
        std::uint32_t epoch = 0;
        std::uint32_t mapped = 0;   ///< mapped pages in this chunk
        std::uint32_t inflight = 0; ///< mapped pages migrating
        /** Mapped pages resident in each tier (by current tier bits). */
        std::uint32_t tiers[kMaxTiers] = {};
        std::unique_ptr<std::uint8_t[]> state;
        // Cold migration SoA, allocated on the chunk's first migration.
        // `dest` holds the destination tier index while in flight (an
        // N-tier chain has more than one "other" tier to arrive at).
        std::unique_ptr<Tick[]> arrival;
        std::unique_ptr<std::uint64_t[]> seq;
        std::unique_ptr<std::uint8_t[]> dest;
    };

    /** Chunk holding @p page, or nullptr if absent/stale this epoch. */
    const Chunk *
    findChunk(PageId page) const
    {
        std::uint64_t c = page >> kChunkBits;
        if (c >= chunks_.size())
            return nullptr;
        const Chunk &ch = chunks_[c];
        return ch.epoch == epoch_ ? &ch : nullptr;
    }

    /** Chunk for @p page, allocated/recycled to the current epoch. */
    Chunk &chunkFor(PageId page);
    /** Ensure the chunk's cold migration arrays exist. */
    void ensureCold(Chunk &ch);

    std::vector<Chunk> chunks_;
    std::uint32_t epoch_ = 1;

    std::size_t num_mapped_ = 0;
    std::size_t num_inflight_ = 0;
    std::uint64_t next_seq_ = 1;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_TABLE_HH
