/**
 * @file
 * A forwarding policy that hands the inner policy's onRangeAccess() at
 * most a fixed number of pages per call.
 *
 * Clipped to one page, a reactive policy can fault only one page per
 * call, so its demand faults run one at a time: policy hook, stall and
 * clock advance per page.  That is the per-page reference the batched
 * fault series (HeterogeneousMemory::faultSeries()) must match.
 * Unclipped, the wrapper only counts the segments that resolve more
 * than one fault, so a differential can check the batched side really
 * batched.
 */

#ifndef SENTINEL_TESTS_SUPPORT_CLIPPED_POLICY_HH
#define SENTINEL_TESTS_SUPPORT_CLIPPED_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dataflow/policy.hh"

namespace sentinel::testing {

class ClippedPolicy : public df::MemoryPolicy
{
  public:
    static constexpr std::uint64_t kUnclipped =
        std::numeric_limits<std::uint64_t>::max();

    ClippedPolicy(df::MemoryPolicy &inner, std::uint64_t max_pages)
        : inner_(inner), max_pages_(max_pages)
    {
    }

    std::string name() const override { return inner_.name(); }

    void onTrainingStart(df::Executor &ex) override
    {
        inner_.onTrainingStart(ex);
    }
    void onStepBegin(df::Executor &ex, int step) override
    {
        inner_.onStepBegin(ex, step);
    }
    void onStepEnd(df::Executor &ex, int step) override
    {
        inner_.onStepEnd(ex, step);
    }
    void onLayerBegin(df::Executor &ex, int layer) override
    {
        inner_.onLayerBegin(ex, layer);
    }
    void onLayerEnd(df::Executor &ex, int layer) override
    {
        inner_.onLayerEnd(ex, layer);
    }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        return inner_.allocate(ex, tensor);
    }
    void
    onTensorAllocated(df::Executor &ex, df::TensorId id,
                      const df::TensorPlacement &pl) override
    {
        inner_.onTensorAllocated(ex, id, pl);
    }
    void
    onTensorFreed(df::Executor &ex, df::TensorId id,
                  const df::TensorPlacement &pl) override
    {
        inner_.onTensorFreed(ex, id, pl);
    }
    void onRangeUnmapped(df::Executor &ex, mem::PageRun run) override
    {
        inner_.onRangeUnmapped(ex, run);
    }

    void
    onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<df::AccessSegment> &out) override
    {
        const std::size_t before = out.size();
        run.count = std::min(run.count, max_pages_);
        inner_.onRangeAccess(ex, run, is_write, out);
        for (std::size_t i = before; i < out.size(); ++i)
            if (out[i].stall_events > 1)
                ++multi_fault_segments;
    }

    bool stallForInflight(df::Executor &ex, mem::PageId page) override
    {
        return inner_.stallForInflight(ex, page);
    }

    /** Segments that resolved more than one stall event. */
    std::uint64_t multi_fault_segments = 0;

  private:
    df::MemoryPolicy &inner_;
    std::uint64_t max_pages_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_CLIPPED_POLICY_HH
