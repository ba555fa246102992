/**
 * @file
 * IAL — the "improved active list" page-migration baseline.
 *
 * The paper's main CPU-side competitor [19]: an OS-level, DNN-agnostic
 * mechanism keeping a FIFO active list of fast-memory pages.  Pages
 * that get accessed repeatedly in slow memory are promoted
 * (asynchronously, in the background, like the kernel's migration
 * threads); when fast memory fills, the *oldest* page is evicted
 * regardless of its heat.
 *
 * Its weaknesses are exactly the ones Sentinel attacks:
 *  - page-level view: false sharing makes cold tensors look hot (the
 *    packed layout guarantees sharing);
 *  - no lifetime knowledge: short-lived tensors' pages get promoted
 *    and then evicted pointlessly, wasting migration bandwidth;
 *  - FIFO eviction throws out hot pages, which must be re-promoted.
 */

#ifndef SENTINEL_BASELINES_IAL_HH
#define SENTINEL_BASELINES_IAL_HH

#include <vector>

#include "alloc/arena.hh"
#include "baselines/page_queues.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"

namespace sentinel::baselines {

class IalPolicy : public df::MemoryPolicy
{
  public:
    /** Slow-memory accesses before a page is considered active and
     *  promoted. */
    static constexpr int kPromoteThreshold = 4;
    /** Cost of one NUMA hint fault, paid by every access to a slow,
     *  idle page. */
    static constexpr Tick kHintFaultCost = 250;
    /** In-kernel page copy + remap a promoting access also pays. */
    static constexpr Tick kPromoteServiceCost = kUsec;

    std::string name() const override { return "ial"; }

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorAllocated(df::Executor &ex, df::TensorId id,
                           const df::TensorPlacement &pl) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    void onRangeUnmapped(df::Executor &ex, mem::PageRun run) override;
    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;

    bool
    stallForInflight(df::Executor &, mem::PageId) override
    {
        // The kernel never blocks the application for its own
        // migrations: accesses read the source copy until remap.
        return false;
    }

    std::uint64_t promotionsRequested() const { return promotions_; }

  private:
    void evictForSpace(df::Executor &ex, std::uint64_t bytes_needed);
    void noteFastPage(mem::PageId page);

    /** Hint-fault @p page, idle in slow memory; appends the one-page
     *  segment. */
    void hintFault(df::Executor &ex, mem::PageId page,
                   std::vector<df::AccessSegment> &out);

    alloc::VirtualArena arena_{ 0 };

    /**
     * FIFO active list of fast pages (front = oldest).  Removal is
     * lazy: an entry counts only while its page's in_fifo_ flag is
     * set, and the first entry popped for a flagged page takes it.
     */
    PageRing fifo_;
    mem::PageDirectory<std::uint8_t> in_fifo_;

    /** Slow-memory access counts (page heat, false sharing included). */
    mem::PageDirectory<int> slow_touches_;

    /** evictForSpace()'s victim runs, reused across calls. */
    std::vector<mem::PageRun> victims_;

    std::uint64_t promotions_ = 0;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_IAL_HH
