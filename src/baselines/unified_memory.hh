/**
 * @file
 * CUDA Unified Memory (UM) — the GPU demand-paging baseline.
 *
 * No profiling, no prefetching: a GPU access to a host-resident page
 * raises a page fault; the driver migrates the page on demand (fault
 * service + transfer fully exposed) and evicts least-recently-used
 * pages when device memory fills.  The paper's Fig. 12 normalizes all
 * GPU results to UM; Sentinel-GPU beats it by 1.1x-7.8x.
 */

#ifndef SENTINEL_BASELINES_UNIFIED_MEMORY_HH
#define SENTINEL_BASELINES_UNIFIED_MEMORY_HH

#include <vector>

#include "alloc/arena.hh"
#include "baselines/page_queues.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"

namespace sentinel::baselines {

class UnifiedMemoryPolicy : public df::MemoryPolicy
{
  public:
    std::string name() const override { return "um"; }

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorAllocated(df::Executor &ex, df::TensorId id,
                           const df::TensorPlacement &pl) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    void onRangeUnmapped(df::Executor &ex, mem::PageRun run) override;
    /** One page of onRangeUnmapped(), for wrappers that forward the
     *  per-page hook. */
    void onPageUnmapped(df::Executor &ex, mem::PageId page) override;
    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;

    std::uint64_t demandFaults() const { return faults_; }

  private:
    /** Driver fault-service overhead per demand miss. */
    static constexpr Tick kFaultCost = 8 * kUsec;

    void evictLru(df::Executor &ex, std::uint64_t bytes_needed);

    /** Service the demand faults of the run at @p page, host-resident
     *  in state @p rs: appends one segment covering the faults that
     *  fit on the device as one series, or the one page that waits. */
    void demandFault(df::Executor &ex, mem::PageId page,
                     const mem::PageRunState &rs,
                     std::vector<df::AccessSegment> &out);

    /** Based at 0, so the LRU's page directory covers few chunks. */
    alloc::VirtualArena arena_{ 0 };

    /** LRU order of device-resident pages (front = least recent),
     *  touched a run at a time.  Every queued page is mapped:
     *  onRangeUnmapped() erases a run before it goes. */
    RunLru lru_;

    /** evictLru()'s victim runs, reused across calls. */
    std::vector<mem::PageRun> victims_;

    std::uint64_t faults_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_UNIFIED_MEMORY_HH
