/**
 * @file
 * The executor's edge-page refcounts: a fixed open-addressing table
 * from PageId to a live-tensor count.
 *
 * Only a live tensor's first and last pages carry a count (see
 * Executor), so a graph of n tensors never holds more than 2n
 * entries.  The table is sized once, to a power of two of at least
 * twice that, so its load stays at or under one half: its memory
 * follows the graph, not the address span its tensors are placed
 * over (policies place them at multi-TiB bases).
 *
 * Linear probing from a Fibonacci hash of the page id; an entry
 * leaves when its count reaches 0, by backward-shift deletion, so no
 * tombstone ever lengthens a probe and the table never rehashes.
 */

#ifndef SENTINEL_DATAFLOW_EDGE_REFS_HH
#define SENTINEL_DATAFLOW_EDGE_REFS_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "mem/page.hh"

namespace sentinel::df {

class EdgeRefs
{
  public:
    /** A table for at most @p max_entries pages at once. */
    explicit EdgeRefs(std::size_t max_entries)
        : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_entries, 2))),
          shift_(64 - std::countr_zero(slots_.size()))
    {
    }

    /**
     * Add @p delta to @p page's count (absent = 0).  @return the count
     * after; at 0 the page leaves the table.
     */
    std::int32_t
    add(mem::PageId page, std::int32_t delta)
    {
        std::size_t i = home(page);
        while (slots_[i].count != 0 && slots_[i].page != page)
            i = next(i);
        Slot &s = slots_[i];
        if (s.count == 0)
            s.page = page;
        s.count += delta;
        SENTINEL_ASSERT(s.count >= 0, "page refcount underflow");
        const std::int32_t after = s.count;
        if (after == 0)
            erase(i);
        return after;
    }

    /** @p page's count; 0 if absent. */
    std::int32_t
    count(mem::PageId page) const
    {
        const std::size_t i = slot(page);
        return i == capacity() ? 0 : slots_[i].count;
    }

    std::size_t capacity() const { return slots_.size(); }

    /** The slot @p page's probe starts at. */
    std::size_t
    home(mem::PageId page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** The slot holding @p page, or capacity() if it is absent. */
    std::size_t
    slot(mem::PageId page) const
    {
        for (std::size_t i = home(page); slots_[i].count != 0; i = next(i))
            if (slots_[i].page == page)
                return i;
        return capacity();
    }

    bool occupied(std::size_t i) const { return slots_[i].count != 0; }

  private:
    struct Slot {
        mem::PageId page = 0;
        std::int32_t count = 0; ///< 0 = empty slot
    };

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (capacity() - 1);
    }

    /** Empty slot @p hole, shifting later entries of its probe run
     *  back so every entry stays reachable from its home. */
    void
    erase(std::size_t hole)
    {
        const std::size_t mask = capacity() - 1;
        for (std::size_t j = next(hole); slots_[j].count != 0; j = next(j)) {
            // The entry at j may fill the hole iff the hole lies on
            // its probe path, between its home and j.
            if (((j - home(slots_[j].page)) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].count = 0;
    }

    std::vector<Slot> slots_;
    unsigned shift_;
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_EDGE_REFS_HH
