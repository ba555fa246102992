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
 *
 * Tracking equals mapping.  The profiling step poisons every page it
 * maps, and the executor only reports accesses to the pages of live
 * tensors, which are mapped; so every page of an observed run is
 * poisoned and faults once per access, and the tracker needs no record
 * of its own of which pages are poisoned.  It keeps a log of one
 * record per observed run instead of per-page counters: it is attached
 * for one profiling step, so the log stays as short as that step's
 * access walk, and pageCounts() folds it into per-page counts once,
 * when the profiler reads them.
 */

#ifndef SENTINEL_MEM_ACCESS_TRACKER_HH
#define SENTINEL_MEM_ACCESS_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "mem/page.hh"

namespace sentinel::mem {

/** Read/write counts shared by every page of [first, first + count). */
struct PageRunCounts {
    PageId first = 0;
    std::uint64_t count = 0;
    std::uint64_t reads = 0;  ///< per page
    std::uint64_t writes = 0; ///< per page

    PageId endPage() const { return first + count; }
    std::uint64_t total() const { return reads + writes; }
};

class AccessTracker
{
  public:
    /** Cost of one protection fault + PTE poison + TLB flush
     *  round-trip, charged per observed access. */
    static constexpr Tick kFaultCost = 2 * kUsec;

    /**
     * Observe @p count accesses to every page of @p run, all of whose
     * pages are mapped (so poisoned).
     *
     * @return the fault-handling cost to charge to the critical path:
     *         one fault per access per page.
     */
    Tick onAccess(PageRun run, bool is_write, std::uint64_t count = 1);

    /**
     * Every page observed so far, as ascending, disjoint runs of pages
     * with equal counts, each with at least one access per page.
     */
    std::vector<PageRunCounts> pageCounts() const;

    std::uint64_t totalFaults() const { return total_faults_; }

  private:
    struct Access {
        PageRun run;
        bool is_write;
        std::uint64_t count;
    };

    std::vector<Access> log_;
    std::uint64_t total_faults_ = 0;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_ACCESS_TRACKER_HH
