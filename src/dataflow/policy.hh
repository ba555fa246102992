/**
 * @file
 * The memory-management policy interface.
 *
 * Everything this reproduction compares — Sentinel itself, IAL,
 * AutoTM, first-touch NUMA, Memory Mode, UM, vDNN, SwapAdvisor,
 * Capuchin, and the fast-only / slow-only references — implements this
 * interface.  The Executor drives a training step and calls back:
 *
 *  - lifecycle hooks (training / step / layer boundaries), where
 *    planned policies schedule prefetches and evictions;
 *  - allocate()/free notifications, where layout policies choose
 *    addresses (and therefore page sharing) and initial tiers;
 *  - onRangeAccess(), the batched access hook, where reactive
 *    page-level policies migrate on demand and charge critical-path
 *    costs.  Every policy in src/ overrides it and resolves its
 *    faults from the residency state it already read: UM and GPU
 *    Sentinel fault a host-resident run in as one closed-form series
 *    (HeterogeneousMemory::faultSeries()), IAL resolves its hint
 *    fault, Memory Mode its cache misses.  The per-page
 *    onPageAccess() behind the default adapter is kept for policies
 *    written against it outside src/.
 *
 * Hooks may charge time to the step through the Executor's charge*
 * methods; they never mutate the clock directly.
 */

#ifndef SENTINEL_DATAFLOW_POLICY_HH
#define SENTINEL_DATAFLOW_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "dataflow/placement.hh"
#include "dataflow/tensor.hh"
#include "mem/page.hh"

namespace sentinel::df {

class Executor;

/** Result of the per-page access hook. */
struct PageAccessResult {
    /**
     * Critical-path cost injected by the policy (demand-fault service,
     * cache-miss fill, ...).  Charged as exposed migration time.
     */
    Tick extra = 0;

    /**
     * If set, the access is served from this tier regardless of the
     * page table (e.g. a Memory-Mode DRAM cache hit, or a page the
     * policy just faulted in synchronously).
     */
    std::optional<mem::Tier> effective;
};

/**
 * One policy-resolved segment of a batched range access: the leading
 * @c pages of the range all receive the same treatment.
 */
struct AccessSegment {
    /** Pages covered, counted from the range's first page (>= 1). */
    std::uint64_t pages = 0;

    /** Critical-path cost for the whole segment (sum over its pages). */
    Tick extra = 0;

    /**
     * How many distinct stall events @c extra aggregates (a per-page
     * fault loop collapsed into one segment still counts every fault),
     * so StepStats::num_stalls matches the per-page path exactly.
     */
    std::uint64_t stall_events = 0;

    /** As PageAccessResult::effective, applied to the whole segment. */
    std::optional<mem::Tier> effective;
};

class MemoryPolicy
{
  public:
    virtual ~MemoryPolicy() = default;

    virtual std::string name() const = 0;

    // --- Lifecycle hooks -------------------------------------------------

    /** Called once before any step; preallocated tensors follow. */
    virtual void onTrainingStart(Executor &) {}

    virtual void onStepBegin(Executor &, int /*step*/) {}
    virtual void onStepEnd(Executor &, int /*step*/) {}

    /** Layer boundaries — Sentinel's migration intervals live here. */
    virtual void onLayerBegin(Executor &, int /*layer*/) {}
    virtual void onLayerEnd(Executor &, int /*layer*/) {}

    // --- Allocation -------------------------------------------------------

    /** Choose an address and an initial tier for @p tensor. */
    virtual AllocDecision allocate(Executor &, const TensorDesc &tensor) = 0;

    /** The executor mapped @p tensor at @p placement. */
    virtual void
    onTensorAllocated(Executor &, TensorId, const TensorPlacement &)
    {
    }

    /**
     * @p tensor is being freed; its placement is still valid during
     * this call (so layout state can be recycled).
     */
    virtual void
    onTensorFreed(Executor &, TensorId, const TensorPlacement &)
    {
    }

    /** The last tensor on @p page was freed; the page is unmapping. */
    virtual void onPageUnmapped(Executor &, mem::PageId) {}

    // --- Access ------------------------------------------------------------

    /**
     * Per-page access hook, reached through the default
     * onRangeAccess() adapter one page at a time.  A policy whose
     * onRangeAccess() override covers a run itself never sees the
     * run's pages here.
     */
    virtual PageAccessResult
    onPageAccess(Executor &, mem::PageId, bool /*is_write*/)
    {
        return {};
    }

    /**
     * Batched access hook: resolve a prefix of @p run into one or more
     * segments appended to @p out.  The executor re-invokes with the
     * uncovered remainder, so covering a single page is always legal.
     *
     * The default adapter routes exactly one page through
     * onPageAccess(): policy hook, stall, and clock advance per page.
     * That is the per-page reference every batched override must
     * match bit-for-bit, so overrides MUST only batch pages whose
     * treatment cannot depend on the clock advancing between them
     * (an attached AccessTracker advances it by one fault per access
     * to each resolved run).  A demand-fault series is the one
     * exception: the clock advances between its faults only by their
     * own stalls, which the series computes in closed form.  That
     * holds with no AccessTracker attached — the profiler attaches
     * one only under its own policies.
     */
    virtual void onRangeAccess(Executor &ex, mem::PageRun run, bool is_write,
                               std::vector<AccessSegment> &out);

    /**
     * A touched page is in flight toward fast memory.  Return true to
     * stall until it arrives (access then served from fast), false to
     * read it from its source tier.  Sentinel's test-and-trial for
     * Case 3 decides exactly this (Sec. IV-D).
     */
    virtual bool stallForInflight(Executor &, mem::PageId) { return true; }
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_POLICY_HH
