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
 *  - PageLru threads a doubly linked list through a page-indexed
 *    mem::PageDirectory, one 8-byte link per page;
 *  - PageRing is a grow-only ring buffer of page ids.
 */

#ifndef SENTINEL_BASELINES_PAGE_QUEUES_HH
#define SENTINEL_BASELINES_PAGE_QUEUES_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "mem/page.hh"
#include "mem/page_directory.hh"

namespace sentinel::baselines {

/**
 * Recency order over page ids: front = least recently touched.
 * touch(), erase() and popFront() are O(1) and allocate nothing once
 * the directory chunks covering the pages exist.
 *
 * Links store page + 1 in 32 bits (0 = none), so page ids must stay
 * below 2^32 - 1: true of any arena based at 0 with the default 2^44-B
 * region.
 */
class PageLru
{
  public:
    bool empty() const { return head_ == 0; }

    /** Append @p page at the back, moving it there if already queued. */
    void
    touch(mem::PageId page)
    {
        const std::uint32_t k = key(page);
        Link &l = links_.ref(page);
        if (linked(k, l)) {
            if (k == tail_)
                return;
            unlink(l);
        }
        l.prev = tail_;
        l.next = 0;
        if (tail_ != 0)
            links_.ref(tail_ - 1).next = k;
        else
            head_ = k;
        tail_ = k;
    }

    /** Unlink @p page if it is queued. */
    void
    erase(mem::PageId page)
    {
        const Link *l = links_.find(page);
        if (l && linked(key(page), *l))
            unlink(links_.ref(page));
    }

    /** Remove and return the least recently touched page. */
    mem::PageId
    popFront()
    {
        SENTINEL_ASSERT(head_ != 0, "popFront() of an empty LRU");
        const mem::PageId page = head_ - 1;
        unlink(links_.ref(page));
        return page;
    }

  private:
    /** Neighbours as page + 1; 0 = none (the list's end). */
    struct Link {
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    static std::uint32_t
    key(mem::PageId page)
    {
        SENTINEL_ASSERT(page < std::numeric_limits<std::uint32_t>::max(),
                        "page %llu does not fit a 32-bit LRU link",
                        static_cast<unsigned long long>(page));
        return static_cast<std::uint32_t>(page + 1);
    }

    /** Only the head has no predecessor among queued pages. */
    bool
    linked(std::uint32_t k, const Link &l) const
    {
        return l.prev != 0 || head_ == k;
    }

    void
    unlink(Link &l)
    {
        if (l.prev != 0)
            links_.ref(l.prev - 1).next = l.next;
        else
            head_ = l.next;
        if (l.next != 0)
            links_.ref(l.next - 1).prev = l.prev;
        else
            tail_ = l.prev;
        l = Link{};
    }

    mem::PageDirectory<Link> links_;
    std::uint32_t head_ = 0;
    std::uint32_t tail_ = 0;
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
