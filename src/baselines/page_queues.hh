/**
 * @file
 * Dense page queues for the reactive baselines.
 *
 * UM's LRU and IAL's FIFO active list are touched on every access the
 * policies act on.  Node-based containers (std::list plus a hash map
 * of iterators, std::deque) cost a heap allocation per insert; these
 * keep their state in flat, reused storage instead, so a warm step
 * allocates nothing:
 *
 *  - RunLru links pooled records of hole-free page runs in recency
 *    order and names each page's record in a page-indexed
 *    mem::PageDirectory, 4 bytes per page;
 *  - PageRing is a grow-only ring buffer of page ids.
 */

#ifndef SENTINEL_BASELINES_PAGE_QUEUES_HH
#define SENTINEL_BASELINES_PAGE_QUEUES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "mem/page.hh"
#include "mem/page_directory.hh"

namespace sentinel::baselines {

/**
 * Recency order over pages, kept per run: front = least recently
 * touched page.
 *
 * A doubly linked recency list of pooled records, each a run
 * [first, end) of queued pages with no hole, queued in ascending
 * order; live records are disjoint, and a page-indexed directory names
 * each queued page's record by a 32-bit id (0 = not queued).  The
 * queue is thus exactly the page LRU that touches each page of every
 * run in turn:
 *
 *  - front(max) is the head record's first pages, and popFront(n)
 *    clears n ids and advances the head record;
 *  - touch() and eraseRange() step over the run a whole record at a
 *    time, trimming each record they overlap or dropping it.  A record
 *    the run splits in two gives its smaller side to a new record at
 *    the same recency position, so only those ids are rewritten;
 *  - touch() then appends one record for the run and writes its ids,
 *    but a record that starts the run and ends inside it becomes the
 *    run's record and keeps its ids: an exact re-touch writes none.
 *
 * Dropped records return to a free list, so once the pool and the
 * directory chunks reach their high-water mark nothing allocates.
 */
class RunLru
{
  public:
    bool empty() const { return head() == 0; }

    /** Move the pages of @p run to the back, in ascending order. */
    void
    touch(mem::PageRun run)
    {
        SENTINEL_ASSERT(run.count > 0, "touch() of an empty run");
        const mem::PageId end = run.endPage();
        // A record that starts the run and ends inside it keeps its ids.
        std::uint32_t id = ids_.get(run.first);
        mem::PageId from = run.first;
        if (id != 0 && pool_[id].first == run.first && pool_[id].end <= end) {
            from = pool_[id].end;
            unlink(id);
        } else {
            id = claim(run.first, end);
        }
        unqueue(from, end, false);
        pool_[id].end = end;
        linkAfter(id, pool_[0].prev);
        fill(from, end, id);
    }

    /** Unqueue @p page if it is queued. */
    void
    erase(mem::PageId page)
    {
        if (const std::uint32_t id = ids_.get(page); id != 0) {
            cut(id, page, page + 1);
            ids_.ref(page) = 0;
        }
    }

    /** Unqueue the queued pages of @p run. */
    void
    eraseRange(mem::PageRun run)
    {
        unqueue(run.first, run.endPage(), true);
    }

    /**
     * The oldest run of queued pages, at most @p max long: a prefix of
     * the queue whose pages are consecutive and touched together.
     */
    mem::PageRun
    front(std::uint64_t max) const
    {
        SENTINEL_ASSERT(!empty(), "front() of an empty LRU");
        const Record &r = pool_[head()];
        return { r.first, std::min(max, r.end - r.first) };
    }

    /** Unqueue the first @p n pages of the run front() just returned. */
    void
    popFront(std::uint64_t n)
    {
        SENTINEL_ASSERT(!empty(), "popFront() of an empty LRU");
        Record &r = pool_[head()];
        SENTINEL_ASSERT(n <= r.end - r.first,
                        "popFront() past the run front() returned");
        fill(r.first, r.first + n, 0);
        r.first += n;
        if (r.first == r.end)
            drop(head());
    }

    /** Records ever claimed, live or free: the pool's high-water mark. */
    std::size_t poolSize() const { return pool_.size() - 1; }

  private:
    struct Record {
        mem::PageId first = 0;
        mem::PageId end = 0;
        /** Recency neighbours as record ids, 0 = the ring's end; a
         *  free record keeps the next free one in @c next. */
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    /** Take the queued pages of [p, end) off their records, zeroing
     *  their ids if @p clear; skips chunks the directory never made. */
    void
    unqueue(mem::PageId p, mem::PageId end, bool clear)
    {
        const auto queued = [](std::uint32_t v) { return v != 0; };
        std::uint32_t *slots = nullptr;
        while (p < end) {
            const std::uint64_t n = ids_.presentSpan(p, end - p, slots);
            const std::uint64_t i =
                slots ? std::find_if(slots, slots + n, queued) - slots : n;
            p += i;
            if (i == n)
                continue;
            const mem::PageId stop = cut(slots[i], p, end);
            if (clear)
                fill(p, stop, 0);
            p = stop;
        }
    }

    /** Take [p, end) off record @p id, which holds page p, and @return
     *  where its pages in that range stop.  The caller rewrites them. */
    mem::PageId
    cut(std::uint32_t id, mem::PageId p, mem::PageId end)
    {
        const Record r = pool_[id];
        const mem::PageId stop = std::min(r.end, end);
        if (r.first < p && stop < r.end) {
            const bool head_side = p - r.first <= r.end - stop;
            const mem::PageId lo = head_side ? r.first : stop;
            const mem::PageId hi = head_side ? p : r.end;
            const std::uint32_t side = claim(lo, hi);
            linkAfter(side, head_side ? r.prev : id);
            if (head_side)
                pool_[id].first = stop;
            else
                pool_[id].end = p;
            fill(lo, hi, side);
        } else if (r.first < p) {
            pool_[id].end = p;
        } else if (stop < r.end) {
            pool_[id].first = stop;
        } else {
            drop(id);
        }
        return stop;
    }

    /** Set the ids of the pages [first, end) to @p id. */
    void
    fill(mem::PageId first, mem::PageId end, std::uint32_t id)
    {
        std::uint32_t *slots = nullptr;
        for (mem::PageId p = first; p < end;) {
            const std::uint64_t n = ids_.span(p, end - p, slots);
            std::fill_n(slots, n, id);
            p += n;
        }
    }

    /** A fresh, unlinked record of [first, end), reused from the free
     *  list when one is there. */
    std::uint32_t
    claim(mem::PageId first, mem::PageId end)
    {
        std::uint32_t id = free_;
        if (id != 0) {
            free_ = pool_[id].next;
        } else {
            SENTINEL_ASSERT(pool_.size() <
                                std::numeric_limits<std::uint32_t>::max(),
                            "LRU record ids exhausted");
            id = static_cast<std::uint32_t>(pool_.size());
            pool_.emplace_back();
        }
        pool_[id] = Record{ first, end, 0, 0 };
        return id;
    }

    /** Unlink record @p id and return it to the free list. */
    void
    drop(std::uint32_t id)
    {
        unlink(id);
        pool_[id].next = free_;
        free_ = id;
    }

    void
    unlink(std::uint32_t id)
    {
        const Record &r = pool_[id];
        pool_[r.prev].next = r.next;
        pool_[r.next].prev = r.prev;
    }

    /** Link unlinked record @p id right after record @p prev. */
    void
    linkAfter(std::uint32_t id, std::uint32_t prev)
    {
        const std::uint32_t next = pool_[prev].next;
        pool_[id].prev = prev;
        pool_[id].next = next;
        pool_[prev].next = id;
        pool_[next].prev = id;
    }

    std::uint32_t head() const { return pool_[0].next; }

    /** [0] closes the recency ring: its next is the head record and
     *  its prev the tail, 0 when the list is empty. */
    std::vector<Record> pool_ = std::vector<Record>(1);
    mem::PageDirectory<std::uint32_t> ids_;
    std::uint32_t free_ = 0;
};

/**
 * FIFO of page ids in a grow-only ring: pushBack() and popFront() are
 * O(1), and storage is reused once it reaches its high-water mark.
 */
class PageRing
{
  public:
    bool empty() const { return size_ == 0; }

    void
    pushBack(mem::PageId page)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & mask()] = page;
        ++size_;
    }

    mem::PageId
    popFront()
    {
        SENTINEL_ASSERT(size_ > 0, "popFront() of an empty ring");
        const mem::PageId page = slots_[head_];
        head_ = (head_ + 1) & mask();
        --size_;
        return page;
    }

  private:
    /** Capacity is a power of two, so wrapping is a mask. */
    std::size_t mask() const { return slots_.size() - 1; }

    /** Double the capacity, unwrapping the queue to start at slot 0. */
    void
    grow()
    {
        std::vector<mem::PageId> bigger(
            slots_.empty() ? 64 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = slots_[(head_ + i) & mask()];
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<mem::PageId> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_PAGE_QUEUES_HH
