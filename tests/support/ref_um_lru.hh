/**
 * @file
 * The per-page LRU and eviction loop UM's run-granular ones must
 * match, for differential tests.
 *
 * ListLru is a std::list of page ids plus a map of iterators: a touch
 * moves one page to the back.  refEvictLru() is UM's per-page victim
 * loop: it pops one page at a time, drops a page that is gone,
 * host-side or already moving, and takes idle device pages, coalescing
 * consecutive ones, until @p bytes_needed is reclaimed.  It only
 * chooses; the caller migrates.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_UM_LRU_HH
#define SENTINEL_TESTS_SUPPORT_REF_UM_LRU_HH

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <vector>

#include "mem/hm.hh"
#include "mem/page.hh"

namespace sentinel::testing {

class ListLru
{
  public:
    bool empty() const { return order_.empty(); }
    std::size_t size() const { return order_.size(); }
    mem::PageId back() const { return order_.back(); }

    void
    touch(mem::PageId p)
    {
        auto it = pos_.find(p);
        if (it != pos_.end()) {
            order_.splice(order_.end(), order_, it->second);
            return;
        }
        order_.push_back(p);
        pos_[p] = std::prev(order_.end());
    }

    /** Touch the pages of @p run one by one, in ascending order. */
    void
    touch(mem::PageRun run)
    {
        for (mem::PageId p = run.first; p < run.endPage(); ++p)
            touch(p);
    }

    void
    erase(mem::PageId p)
    {
        auto it = pos_.find(p);
        if (it != pos_.end()) {
            order_.erase(it->second);
            pos_.erase(it);
        }
    }

    mem::PageId
    popFront()
    {
        mem::PageId p = order_.front();
        order_.pop_front();
        pos_.erase(p);
        return p;
    }

    /** Some queued page, chosen by @p r. */
    mem::PageId
    pick(std::uint64_t r) const
    {
        auto it = order_.begin();
        std::advance(it, r % order_.size());
        return *it;
    }

  private:
    std::list<mem::PageId> order_;
    std::unordered_map<mem::PageId, std::list<mem::PageId>::iterator>
        pos_;
};

/** The victim runs UM's per-page loop picks from @p lru at @p now. */
inline std::vector<mem::PageRun>
refEvictLru(mem::HeterogeneousMemory &hm, ListLru &lru,
            std::uint64_t bytes_needed, Tick now)
{
    std::vector<mem::PageRun> victims;
    std::uint64_t reclaimed = 0;
    while (reclaimed < bytes_needed && !lru.empty()) {
        mem::PageId victim = lru.popFront();
        if (!hm.isMapped(victim))
            continue;
        mem::PageRunState rs = hm.residentRange(victim, 1, now);
        if (rs.tier != mem::Tier::Fast || rs.in_flight)
            continue;
        if (!victims.empty() && victims.back().endPage() == victim)
            ++victims.back().count;
        else
            victims.push_back(mem::PageRun{ victim, 1 });
        reclaimed += mem::kPageSize;
    }
    return victims;
}

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_UM_LRU_HH
