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
 * Storage is a sequence of stretches ordered by first page.  A
 * stretch is a maximal run of mapped pages that share one resident
 * tier and one flight record (or none: idle); unmapped pages are the
 * gaps between stretches.  Adjacent stretches with equal (tier,
 * flight) are always merged, so the table grows with the boundaries
 * in the page state, not with the pages mapped.  The sequence is cut
 * into leaves of at most kLeafCap stretches, each a fixed block of one
 * slot pool, listed in page order by a small index.  A slot that holds
 * no stretch holds an empty one, so any slot whose stretch holds a
 * page is the page's: a position needs no check but that.  A lookup
 * tries the last few positions the table was used at and their
 * neighbours (HM's access walk, its eviction and its allocations each
 * keep one), and a commit the position its flight record carries;
 * only a page at none of them searches the index and then its leaf.
 * An edit splits or merges at each end of its run and shifts the tail
 * of its leaf, or of two when it spans a boundary; a full leaf splits
 * in half and a nearly empty one merges into a neighbour, so no edit
 * moves more than one leaf of stretches.  A begin must find its whole
 * run inside one idle stretch.  The remembered positions make even
 * the const queries unsafe to run concurrently on one table.
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
 * once, and the leaves keep their capacity across clear().
 * Records also carry an intrusive link, so a migration batch is a
 * chain of them in submit order.
 *
 * tests/support/ref_page_table.hh holds a std::map model of the same
 * contract that the randomized differential test checks against.
 */

#ifndef SENTINEL_MEM_PAGE_TABLE_HH
#define SENTINEL_MEM_PAGE_TABLE_HH

#include <cstdint>
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
     * A slot of the stretch pool.  Edits shift, split and merge
     * leaves, so a stored position is where a lookup starts, checked
     * against the page it looks for.
     */
    using Pos = std::uint32_t;
    static constexpr Pos kNoPos = ~Pos{ 0 };

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
        /** Where the run's stretch was put; the next commit's lookup
         *  starts there. */
        Pos at = kNoPos;

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
    std::size_t numStretches() const { return num_stretches_; }

    /** Id of the leaf holding mapped @p page.  For tests. */
    std::uint32_t
    leafOf(PageId page) const
    {
        return leafOfPos(holding(page, "leafOf() of"));
    }

    void clear();

  private:
    /** Pages [first, first+count), all in @c tier and tagged with
     *  @c flight (kNoFlight: idle).  An empty one fills unused slots. */
    struct Stretch {
        PageId first = 0;
        std::uint64_t count = 0;
        FlightId flight = kNoFlight;
        std::uint8_t tier = 0;   ///< resident tier index

        PageId end() const { return first + count; }
    };

    /** Leaf l owns slots [l << kLeafBits, (l + 1) << kLeafBits). */
    static constexpr unsigned kLeafBits = 5;
    static constexpr std::uint32_t kLeafCap = 1u << kLeafBits;
    static constexpr std::uint32_t kNoLeaf = ~std::uint32_t{ 0 };
    /** Positions remembered for lookups. */
    static constexpr std::size_t kCursors = 4;
    /** What probe() returns when no slot near holds the page. */
    static constexpr Pos kMiss = kNoPos - 1;

    static std::uint32_t leafOfPos(Pos p) { return p >> kLeafBits; }
    static std::uint32_t slotOf(Pos p) { return p & (kLeafCap - 1); }
    static Pos firstOf(std::uint32_t leaf) { return leaf << kLeafBits; }
    Pos
    lastOf(std::uint32_t leaf) const
    {
        return firstOf(leaf) + size_[leaf] - 1;
    }

    /** Whether slot @p p holds @p page (false past the pool). */
    bool
    holds(Pos p, PageId page) const
    {
        return p < num_slots_ && page - slots_[p].first < slots_[p].count;
    }
    /** Of @p p and its neighbours, the slot holding @p page, else
     *  kMiss. */
    Pos
    probe(Pos p, PageId page) const
    {
        if (holds(p, page))
            return p;
        if (holds(p + 1, page))
            return p + 1;
        return holds(p - 1, page) ? p - 1 : kMiss;
    }
    /** The first stretch that ends after @p page (the one holding it,
     *  if any), or kNoPos past the last; found from the index. */
    Pos search(PageId page) const;
    /** search() within leaf @p l, whose last stretch ends after
     *  @p page. */
    Pos searchIn(std::uint32_t l, PageId page) const;
    /** search() that tries @p from's leaf first. */
    Pos searchFrom(Pos from, PageId page) const;
    /** search() that tries the recent positions first. */
    Pos
    find(PageId page) const
    {
        return holds(cursors_[0], page) ? cursors_[0] : findSlow(page);
    }
    Pos findSlow(PageId page) const;
    /** find() of mapped @p page. */
    Pos
    holding(PageId page, const char *what) const
    {
        const Pos i = find(page);
        if (!holds(i, page))
            unmapped(page, what);
        return i;
    }
    /** Panic: @p what names @p page, which is not mapped. */
    [[noreturn]] static void unmapped(PageId page, const char *what);

    /** The stretch after @p p's, or kNoPos. */
    Pos
    next(Pos p) const
    {
        const std::uint32_t l = leafOfPos(p);
        if (slotOf(p) + 1 < size_[l])
            return p + 1;
        return rank_[l] + 1 < order_.size() ? firstOf(order_[rank_[l] + 1])
                                            : kNoPos;
    }
    /** Whether a stretch precedes @p p (kNoPos: the end). */
    bool
    hasPrev(Pos p) const
    {
        return p == kNoPos ? !order_.empty()
                           : slotOf(p) > 0 || rank_[leafOfPos(p)] > 0;
    }
    /** The stretch before @p p's; hasPrev() must hold. */
    Pos
    prev(Pos p) const
    {
        if (p == kNoPos)
            return lastOf(order_.back());
        if (slotOf(p) > 0)
            return p - 1;
        return lastOf(order_[rank_[leafOfPos(p)] - 1]);
    }
    /** Whether pages idle in tier @p tier from @p page on would merge
     *  into @p s. */
    static bool
    idleEndsAt(const Stretch &s, PageId page, std::uint8_t tier)
    {
        return s.end() == page && s.tier == tier && s.flight == kNoFlight;
    }
    /** Whether idle stretch @p s of tier @p tier starts at @p page. */
    static bool
    idleStartsAt(const Stretch &s, PageId page, std::uint8_t tier)
    {
        return s.first == page && s.tier == tier && s.flight == kNoFlight;
    }

    /** Make room for @p m stretches before slot @p slot of leaf
     *  @p leaf (splitting it if full) and return where the first goes.
     *  The slot before that holds the stretch that was before them, if
     *  @p slot > 0.  The caller fills all @p m. */
    Pos open(std::uint32_t leaf, std::uint32_t slot, std::uint32_t m);
    /** Remove @p m stretches from @p p on, across leaves. */
    void erase(Pos p, std::size_t m);
    /** Flip the pages of in-flight stretch @p i before @p upto to idle
     *  tier @p dest, merging them with the stretches around. */
    void land(Pos i, PageId upto, std::uint8_t dest);

    /** A fresh leaf linked into the index at @p rank. */
    std::uint32_t newLeaf(std::uint32_t rank);
    /** Unlink empty leaf @p id and free it. */
    void dropLeaf(std::uint32_t id);
    /** Renumber the ranks of order_[from...]. */
    void rerank(std::size_t from);
    /** Merge leaf @p id, if at most a quarter full, with a neighbour
     *  when the two fit in half a leaf. */
    void rebalance(std::uint32_t id);

    std::vector<Stretch> slots_;           ///< every leaf's block
    Pos num_slots_ = 0;                    ///< slots_.size()
    std::vector<std::uint32_t> size_;      ///< stretches per leaf id
    std::vector<std::uint32_t> rank_;      ///< index in order_ per leaf id
    std::vector<std::uint32_t> order_;     ///< live leaf ids in page order
    std::vector<std::uint32_t> free_leaves_;
    std::size_t num_stretches_ = 0;
    /** Recent lookup results, most recent first. */
    mutable Pos cursors_[kCursors] = { kNoPos, kNoPos, kNoPos, kNoPos };

    std::size_t num_mapped_ = 0;
    std::size_t num_inflight_ = 0;

    std::vector<Flight> flights_;      ///< record pool, indexed by id
    std::vector<FlightId> free_;       ///< retired record ids
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_TABLE_HH
