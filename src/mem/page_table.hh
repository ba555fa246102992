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
 * Storage is one vector of stretches ordered by first page.  A
 * stretch is a maximal run of mapped pages that share one resident
 * tier and one flight record (or none: idle); unmapped pages are the
 * gaps between stretches.  Adjacent stretches with equal (tier,
 * flight) are always merged, so the table grows with the boundaries
 * in the page state, not with the pages mapped.  Every operation looks
 * up the stretch holding its first page (the previous lookup's
 * stretch or the next one, else a binary search), then splits or
 * merges at each end of its run, shifting the vector's tail at most
 * once or, for a commit after frees, twice.  A begin must find its
 * whole run inside one idle stretch.  The lookup hint makes even the
 * const queries unsafe to run concurrently on one table.
 *
 * Migration state is kept per run.  Each beginMigrationRun() takes a
 * flight record from a free-listed pool and tags the run's stretch
 * with the record's id.  The record holds the run's source and
 * destination tiers, its arrival progression, and a cursor: the pages
 * that commits have passed.  entry() composes a page's destination
 * and arrival from the record.  A commit names its record and takes
 * the next pages after the cursor: if no page past the cursor was
 * unmapped they are a prefix of the record's one stretch, otherwise
 * only the stretches still tagged with the id land.  A record retires
 * when commits pass its last page, never earlier, so while a caller
 * still holds an id no other run can take it, and a page freed or
 * migrated again mid-flight is simply no longer in flight under the
 * old id.  The pool is as large as the most records ever live at
 * once, and the stretch vector keeps its capacity across clear().
 * Records also carry an intrusive link, so a migration batch is a
 * chain of them in submit order.
 *
 * tests/support/ref_page_table.hh holds a std::map model of the same
 * contract that the randomized differential test checks against.
 */

#ifndef SENTINEL_MEM_PAGE_TABLE_HH
#define SENTINEL_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"

namespace sentinel::mem {

/**
 * Per-page state (a view composed from the page's stretch and, while
 * the page is in flight, its flight record).  @c dest and @c arrival are
 * meaningful only while @c in_flight; an idle page reports its own
 * tier as @c dest and 0 as @c arrival.
 */
struct PageEntry {
    Tier tier = Tier::Slow;     ///< current (source) tier
    bool in_flight = false;     ///< migration scheduled, not yet arrived
    Tier dest = Tier::Slow;     ///< destination while in flight
    Tick arrival = 0;           ///< completion time while in flight
};

/**
 * State of the maximal uniform prefix of a page range: @c count leading
 * pages that share one (tier, in_flight) state.
 */
struct PageRunState {
    Tier tier = Tier::Slow;
    bool in_flight = false;
    std::uint64_t count = 0;
};

/** An ordered map of mapped page stretches. */
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
     * nothing.  One pass over the stretches of the range.
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

    /** Stretches in the table.  For tests. */
    std::size_t numStretches() const { return stretches_.size(); }

    void clear();

  private:
    /** Pages [first, first+count), all in @c tier and tagged with
     *  @c flight (kNoFlight: idle). */
    struct Stretch {
        PageId first = 0;
        std::uint64_t count = 0;
        FlightId flight = kNoFlight;
        std::uint8_t tier = 0;   ///< resident tier index

        PageId end() const { return first + count; }
    };

    /** Index of the first stretch that ends after @p page: the one
     *  holding it, if any. */
    std::size_t find(PageId page) const;
    /** Index of the stretch holding mapped @p page. */
    std::size_t at(PageId page, const char *what) const;
    /** Whether @p b continues @p a: contiguous, one tier, one flight. */
    static bool joins(const Stretch &a, const Stretch &b);
    /** Stretch @p i, or an empty one past either end. */
    Stretch stretchOr0(std::size_t i) const;
    /** Replace stretches_[a, b) by the non-empty stretches of @p with
     *  (at most four), each merged into the one before it where they
     *  join: one shift of the tail at most.  The next lookup starts
     *  at the window. */
    void splice(std::size_t a, std::size_t b,
                std::initializer_list<Stretch> with);
    /** Merge what joins in stretches_[a, b), then drop the slots
     *  merging freed. */
    void coalesce(std::size_t a, std::size_t b);

    std::vector<Stretch> stretches_;   ///< ordered by first, disjoint
    /** Index find() returned last; most lookups land on or next to
     *  it. */
    mutable std::size_t hint_ = 0;

    std::size_t num_mapped_ = 0;
    std::size_t num_inflight_ = 0;

    std::vector<Flight> flights_;      ///< record pool, indexed by id
    std::vector<FlightId> free_;       ///< retired record ids
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_TABLE_HH
