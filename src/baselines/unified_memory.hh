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
    /** @param fault_cost driver fault-service overhead per demand miss. */
    explicit UnifiedMemoryPolicy(Tick fault_cost = 8 * kUsec)
        : fault_cost_(fault_cost), arena_(0)
    {
    }

    std::string name() const override { return "um"; }

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorAllocated(df::Executor &ex, df::TensorId id,
                           const df::TensorPlacement &pl) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    void onPageUnmapped(df::Executor &ex, mem::PageId page) override;
    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;

    std::uint64_t demandFaults() const { return faults_; }

  private:
    void evictLru(df::Executor &ex, std::uint64_t bytes_needed);

    /** Service the demand faults of the run at @p page, host-resident
     *  in state @p rs: appends one segment covering the faults that
     *  fit on the device as one series, or the one page that waits. */
    void demandFault(df::Executor &ex, mem::PageId page,
                     const mem::PageRunState &rs,
                     std::vector<df::AccessSegment> &out);

    Tick fault_cost_;
    alloc::VirtualArena arena_; ///< based at 0: page ids fit PageLru

    /** LRU order of device-resident pages (front = least recent). */
    PageLru lru_;

    /** evictLru()'s victim runs, reused across calls. */
    std::vector<mem::PageRun> victims_;

    std::uint64_t faults_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_UNIFIED_MEMORY_HH
