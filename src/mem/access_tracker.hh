/**
 * @file
 * Model of the paper's OS-level access-counting mechanism.
 *
 * Sentinel counts main-memory accesses per page by poisoning a reserved
 * PTE bit (bit 51) and flushing the TLB: every subsequent access to the
 * page raises a protection fault, whose handler increments the page's
 * counter, re-poisons the PTE and flushes it again (Sec. III-A).  The
 * mechanism is exact — every main-memory access is observed — but each
 * observation pays a fault + TLB-flush cost, which is why the paper's
 * profiling step runs up to ~5x slower (Sec. VII-B).
 *
 * This class reproduces both properties: exact per-page counts, and a
 * per-observation Tick cost the executor charges to the profiling step.
 * State lives in a chunked PageDirectory rather than a hash map, so the
 * per-page lookup is two loads.
 */

#ifndef SENTINEL_MEM_ACCESS_TRACKER_HH
#define SENTINEL_MEM_ACCESS_TRACKER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"
#include "mem/page_directory.hh"

namespace sentinel::mem {

/** Per-page read/write counters collected during the profiling step. */
struct PageAccessCounts {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    std::uint64_t total() const { return reads + writes; }
};

/** Tracking state + counters for one page. */
struct PageTrackState {
    PageAccessCounts counts;
    bool tracked = false; ///< PTE currently poisoned
};

class AccessTracker
{
  public:
    /**
     * @param fault_cost cost of one protection fault + PTE poison +
     *        TLB flush round-trip, charged per observed access.
     */
    explicit AccessTracker(Tick fault_cost = 2 * kUsec)
        : fault_cost_(fault_cost)
    {
    }

    /** Begin tracking [first, first+count) (poison their PTEs). */
    void trackRange(PageId first, std::uint64_t count);

    /** Stop tracking [first, first+count); counts are retained. */
    void untrackRange(PageId first, std::uint64_t count);

    /**
     * Observe @p count accesses to every page of @p run.
     *
     * @return the fault-handling cost to charge to the critical path:
     *         one fault per access to a tracked page, none for
     *         untracked pages.
     */
    Tick onAccess(PageRun run, bool is_write, std::uint64_t count = 1);

    /**
     * Snapshot of every page with tracking state or recorded counts,
     * sorted by page id.
     */
    std::vector<std::pair<PageId, PageTrackState>> allCounts() const;

    /** Counts for @p page (zeros if never tracked). */
    PageAccessCounts counts(PageId page) const;

    std::uint64_t totalFaults() const { return total_faults_; }

    void reset();

  private:
    Tick fault_cost_;
    PageDirectory<PageTrackState> pages_;
    std::uint64_t total_faults_ = 0;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_ACCESS_TRACKER_HH
