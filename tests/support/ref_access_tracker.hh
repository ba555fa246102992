/**
 * @file
 * The per-page access tracker the run-granular mem::AccessTracker must
 * match, for differential tests.
 *
 * Each page carries a `tracked` bit (its PTE is poisoned) and read and
 * write counters in a std::map.  trackRange()/untrackRange() follow
 * mapRange()/unmapRange(); onAccess() counts and charges one fault per
 * access to each tracked page of a run and ignores untracked pages.
 * Counts outlive untracking, so a page whose address is reused by a
 * later tensor sums both tensors' accesses.
 *
 * allocate()/release() drive it as the executor drives its tracker:
 * the edge-page refcounts (RefPageRefs) decide which runs a placement
 * maps and unmaps, and those runs are tracked and untracked.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_ACCESS_TRACKER_HH
#define SENTINEL_TESTS_SUPPORT_REF_ACCESS_TRACKER_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "dataflow/placement.hh"
#include "mem/page.hh"
#include "support/ref_page_refs.hh"

namespace sentinel::testing {

/** Tracking state + counters for one page. */
struct PageTrackState {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    bool tracked = false; ///< PTE currently poisoned

    std::uint64_t total() const { return reads + writes; }
};

class RefAccessTracker
{
  public:
    explicit RefAccessTracker(Tick fault_cost) : fault_cost_(fault_cost) {}

    /** Begin tracking [first, first+count) (poison their PTEs). */
    void
    trackRange(mem::PageId first, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            pages_[first + i].tracked = true;
    }

    /** Stop tracking [first, first+count); counts are retained. */
    void
    untrackRange(mem::PageId first, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = pages_.find(first + i);
            if (it != pages_.end())
                it->second.tracked = false;
        }
    }

    /** Observe @p count accesses to every page of @p run.  @return the
     *  faults' cost: one per access to a tracked page. */
    Tick
    onAccess(mem::PageRun run, bool is_write, std::uint64_t count = 1)
    {
        std::uint64_t faults = 0;
        for (mem::PageId p = run.first; p < run.endPage(); ++p) {
            auto it = pages_.find(p);
            if (it == pages_.end() || !it->second.tracked)
                continue;
            (is_write ? it->second.writes : it->second.reads) += count;
            faults += count;
        }
        total_faults_ += faults;
        return fault_cost_ * static_cast<Tick>(faults);
    }

    /** Every page with tracking state or recorded counts, by page id. */
    std::vector<std::pair<mem::PageId, PageTrackState>>
    allCounts() const
    {
        std::vector<std::pair<mem::PageId, PageTrackState>> out;
        for (const auto &kv : pages_)
            if (kv.second.tracked || kv.second.total() > 0)
                out.push_back(kv);
        return out;
    }

    std::uint64_t totalFaults() const { return total_faults_; }

    /** Map @p pl as the executor does and track what it maps.
     *  @return the runs mapped. */
    std::vector<mem::PageRun>
    allocate(const df::TensorPlacement &pl)
    {
        std::vector<mem::PageRun> runs = refs_.allocate(pl);
        for (const mem::PageRun &run : runs)
            trackRange(run.first, run.count);
        return runs;
    }

    /** Unmap @p pl as the executor does and untrack what it unmaps.
     *  @return the pages unmapped. */
    std::vector<mem::PageId>
    release(const df::TensorPlacement &pl)
    {
        std::vector<mem::PageId> gone;
        for (const mem::PageRun &run : refs_.release(pl, &gone))
            untrackRange(run.first, run.count);
        return gone;
    }

    /** {reads, writes} of every page with a recorded access. */
    std::map<mem::PageId, std::pair<std::uint64_t, std::uint64_t>>
    observedCounts() const
    {
        std::map<mem::PageId, std::pair<std::uint64_t, std::uint64_t>> out;
        for (const auto &[page, s] : allCounts())
            if (s.total() > 0)
                out[page] = { s.reads, s.writes };
        return out;
    }

  private:
    Tick fault_cost_;
    std::map<mem::PageId, PageTrackState> pages_;
    std::uint64_t total_faults_ = 0;
    RefPageRefs refs_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_ACCESS_TRACKER_HH
