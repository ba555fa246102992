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
 *  - RunLru links one pooled record per touched run in recency order
 *    and names each page's record in a page-indexed mem::PageDirectory,
 *    4 bytes per page;
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
 * Recency order over pages, kept per touched run: front = least
 * recently touched page.
 *
 * touch(run) appends one record of the run to a doubly linked recency
 * list.  A page belongs to the record that touched it last, named by
 * a 32-bit record id in a page-indexed directory (0 = not queued), and
 * a record's pages are queued in ascending order.  The queue is thus
 * exactly the page LRU that touches each page of every run in turn:
 *
 *  - a touch rewrites the run's ids one directory chunk span at a
 *    time, releasing each stretch of one old record at once, and
 *    appends a new record;
 *  - eraseRange() clears a run's ids the same way and creates no
 *    chunk, and front()/popFront() hand out the oldest run of queued
 *    pages.
 *
 * Records whose pages are all gone return to a free list, so once the
 * pool and the directory chunks reach their high-water mark nothing
 * allocates.
 */
class RunLru
{
  public:
    bool empty() const { return head_ == 0; }

    /** Move the pages of @p run to the back, in ascending order. */
    void
    touch(mem::PageRun run)
    {
        SENTINEL_ASSERT(run.count > 0, "touch() of an empty run");
        const std::uint32_t id = claim(run);
        std::uint32_t *slots = nullptr;
        for (mem::PageId p = run.first; p < run.endPage();) {
            const std::uint64_t n = ids_.span(p, run.endPage() - p, slots);
            for (std::uint64_t i = 0; i < n;) {
                const std::uint32_t prior = slots[i];
                const std::uint64_t from = i;
                while (i < n && slots[i] == prior)
                    slots[i++] = id;
                if (prior != 0)
                    release(prior, i - from);
            }
            p += n;
        }
        linkBack(id);
    }

    /** Unqueue @p page if it is queued. */
    void
    erase(mem::PageId page)
    {
        eraseRange({ page, 1 });
    }

    /**
     * Unqueue the queued pages of @p run: as erase() of each page in
     * turn, releasing each stretch of one record at once.
     */
    void
    eraseRange(mem::PageRun run)
    {
        std::uint32_t *slots = nullptr;
        for (mem::PageId p = run.first; p < run.endPage();) {
            const std::uint64_t n =
                ids_.presentSpan(p, run.endPage() - p, slots);
            for (std::uint64_t i = 0; slots && i < n;) {
                const std::uint32_t prior = slots[i];
                const std::uint64_t from = i;
                while (i < n && slots[i] == prior)
                    slots[i++] = 0;
                if (prior != 0)
                    release(prior, i - from);
            }
            p += n;
        }
    }

    /**
     * The oldest run of queued pages, at most @p max long: a prefix of
     * the queue whose pages are consecutive and touched together.
     */
    mem::PageRun
    front(std::uint64_t max)
    {
        SENTINEL_ASSERT(head_ != 0, "front() of an empty LRU");
        Record &r = pool_[head_];
        const mem::PageId end = r.end;
        std::uint32_t *slots = nullptr;
        // Skip the pages that left the record since it was touched.
        for (;;) {
            SENTINEL_ASSERT(r.cursor < end, "LRU record has no page");
            const std::uint64_t n = ids_.span(r.cursor, end - r.cursor,
                                              slots);
            std::uint64_t i = 0;
            while (i < n && slots[i] != head_)
                ++i;
            r.cursor += i;
            if (i < n)
                break;
        }
        const std::uint64_t limit = std::min(max, end - r.cursor);
        std::uint64_t len = 0;
        while (len < limit) {
            const std::uint64_t n =
                ids_.span(r.cursor + len, limit - len, slots);
            std::uint64_t i = 0;
            while (i < n && slots[i] == head_)
                ++i;
            len += i;
            if (i < n)
                break;
        }
        return { r.cursor, len };
    }

    /** Unqueue the first @p n pages of the run front() just returned. */
    void
    popFront(std::uint64_t n)
    {
        SENTINEL_ASSERT(head_ != 0, "popFront() of an empty LRU");
        Record &r = pool_[head_];
        std::uint32_t *slots = nullptr;
        for (std::uint64_t left = n; left > 0;) {
            const std::uint64_t k = ids_.span(r.cursor, left, slots);
            for (std::uint64_t i = 0; i < k; ++i) {
                SENTINEL_ASSERT(slots[i] == head_,
                                "popFront() past the run front() returned");
                slots[i] = 0;
            }
            r.cursor += k;
            left -= k;
        }
        release(head_, n);
    }

    /** Records ever claimed, live or free: the pool's high-water mark. */
    std::size_t poolSize() const { return pool_.size() - 1; }

  private:
    /** The pages [cursor, end) of one touch that may still be queued:
     *  none of its pages before the cursor is. */
    struct Record {
        mem::PageId cursor = 0;
        mem::PageId end = 0;
        /** Pages whose id still names this record. */
        std::uint64_t live = 0;
        /** Recency neighbours as record ids, 0 = none; a free record
         *  keeps the next free one in @c next. */
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    /** A fresh, unlinked record of @p run, reused from the free list
     *  when one is there. */
    std::uint32_t
    claim(mem::PageRun run)
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
        pool_[id] = Record{ run.first, run.endPage(), run.count, 0, 0 };
        return id;
    }

    /** @p n pages of record @p id left it; free it once none is left. */
    void
    release(std::uint32_t id, std::uint64_t n)
    {
        Record &r = pool_[id];
        r.live -= n;
        if (r.live == 0) {
            unlink(id);
            r.next = free_;
            free_ = id;
        }
    }

    void
    linkBack(std::uint32_t id)
    {
        Record &r = pool_[id];
        r.prev = tail_;
        r.next = 0;
        if (tail_ != 0)
            pool_[tail_].next = id;
        else
            head_ = id;
        tail_ = id;
    }

    void
    unlink(std::uint32_t id)
    {
        Record &r = pool_[id];
        if (r.prev != 0)
            pool_[r.prev].next = r.next;
        else
            head_ = r.next;
        if (r.next != 0)
            pool_[r.next].prev = r.prev;
        else
            tail_ = r.prev;
        r.prev = r.next = 0;
    }

    std::vector<Record> pool_ = std::vector<Record>(1); ///< [0] = none
    mem::PageDirectory<std::uint32_t> ids_;
    std::uint32_t head_ = 0;
    std::uint32_t tail_ = 0;
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
