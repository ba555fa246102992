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
 * two loads and range walks are byte scans.  Each chunk also carries
 * summary counters (mapped / per-tier / in-flight page counts), which
 * answer the dominant runState() query — "is this whole range
 * uniform?" — in O(chunks) instead of O(pages).  Mapped-ness is
 * tracked with a per-chunk epoch so clear() is O(1).
 *
 * Migration state is kept per run, not per page.  Each
 * beginMigrationRun() takes a flight record from a free-listed pool
 * and returns its id.  The record holds the run's source and
 * destination tiers, its arrival progression, and a cursor: the pages
 * that commits have passed.  A page in flight stores only its
 * record's 32-bit id, in a per-chunk array allocated on the chunk's
 * first migration and read only under the in-flight bit; entry()
 * composes a page's destination and arrival from the record.  A
 * commit names its record and takes the next pages after the cursor:
 * if no page past the cursor was unmapped it is a byte fill plus
 * counter updates, otherwise each page lands only if it is still in
 * flight under that id.  A record retires when commits pass its last
 * page, never earlier, so while a caller still holds an id no other
 * run can take it, and a page freed or migrated again mid-flight is
 * simply no longer in flight under the old id.  The pool is as large
 * as the most records ever live at once.  Records also carry an
 * intrusive link, so a migration batch is a chain of them in submit
 * order.
 *
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

/**
 * Per-page state (a view composed from the state byte and, while the
 * page is in flight, its flight record).  @c dest and @c arrival are
 * meaningful only while @c in_flight; an idle page reports its own
 * tier as @c dest and 0 as @c arrival.
 */
struct PageEntry {
    Tier tier = Tier::Slow;     ///< current (source) tier
    bool in_flight = false;     ///< migration scheduled, not yet arrived
    Tier dest = Tier::Slow;     ///< destination while in flight
    Tick arrival = 0;           ///< completion time while in flight
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

    /** Entry for @p page (must be mapped); see PageEntry for which
     *  fields are meaningful. */
    PageEntry entry(PageId page) const;

    /**
     * Longest prefix of [first, first+count) whose pages share one
     * (tier, in_flight) state.  All pages must be mapped.
     */
    PageRunState runState(PageId first, std::uint64_t count) const;

    /** Id of a flight record. */
    using FlightId = std::uint32_t;
    static constexpr FlightId kNoFlight = ~FlightId{ 0 };

    /**
     * One begun migration run: page first+k goes from tier @c src to
     * @c dest and arrives at a0 + k*step.  Commits have passed the
     * first @c cursor pages; @c dropped pages past the cursor were
     * unmapped in flight, so while it is 0 every page from
     * first+cursor on is still in flight under this record.
     */
    struct Flight {
        PageId first = 0;
        std::uint64_t count = 0;
        Tick a0 = 0;
        Tick step = 0;
        std::uint64_t cursor = 0;
        std::uint64_t dropped = 0;
        std::uint8_t src = 0;         ///< source tier index
        std::uint8_t dest = 0;        ///< destination tier index
        FlightId next = kNoFlight;    ///< next record of the same batch

        /** Arrival of the first page commits have not passed. */
        Tick
        nextArrival() const
        {
            return a0 + static_cast<Tick>(cursor) * step;
        }
    };

    /**
     * Begin migrating [first, first+count) to @p dest; page first+i
     * arrives at @p arrival0 + i * @p step.  Every page must be mapped,
     * idle, and share one resident tier other than @p dest — i.e. a
     * uniform eligible runState() prefix.  If @p after names a live
     * record, the new one is linked as its @c next.
     * @return the new record's id, live until commits pass its last
     *         page.
     */
    FlightId beginMigrationRun(PageId first, std::uint64_t count, Tier dest,
                               Tick arrival0, Tick step,
                               FlightId after = kNoFlight);

    /**
     * Commit the next @p n pages of record @p id after its cursor
     * (at most the pages it has left; none is a no-op).  A page freed
     * while in flight, or remapped and migrated again since, is no
     * longer in flight under @p id and is skipped: a stale commit
     * never flips a page.  Once the cursor reaches the run's end the
     * record retires and @p id may be handed out again.
     * @return the number of pages that actually flipped tiers.
     */
    std::uint64_t commitMigrationRun(FlightId id, std::uint64_t n);

    /** Live record @p id. */
    const Flight &flight(FlightId id) const { return flights_[id]; }

    std::size_t numMapped() const { return num_mapped_; }

    /** Mapped pages with a migration still pending. */
    std::size_t numInFlight() const { return num_inflight_; }

    /** Live flight records: begun runs whose commits have not passed
     *  their last page.  For tests. */
    std::size_t numFlights() const { return flights_.size() - free_.size(); }

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
        /** Flight record id of each in-flight page, allocated on the
         *  chunk's first migration; stale under an idle page. */
        std::unique_ptr<FlightId[]> flight;
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
    /** commitMigrationRun() once a page past the cursor was dropped:
     *  per page, through each page's record id. */
    std::uint64_t commitPageByPage(FlightId id, PageId first,
                                   std::uint64_t n);

    std::vector<Chunk> chunks_;
    std::uint32_t epoch_ = 1;

    std::size_t num_mapped_ = 0;
    std::size_t num_inflight_ = 0;

    std::vector<Flight> flights_;      ///< record pool, indexed by id
    std::vector<FlightId> free_;       ///< retired record ids
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_TABLE_HH
