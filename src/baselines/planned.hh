/**
 * @file
 * The `planned` baseline: offline interval-graph memory planning as a
 * standalone policy.
 *
 * At training start the whole graph (preallocated tensors as
 * always-live intervals, everything else by [first_op, last_op]) goes
 * through plan::assignOffsets; every allocation thereafter returns its
 * precomputed address.  Tensors whose planned region lies entirely
 * below the page-aligned fast-tier budget are placed fast, the rest
 * slow, and nothing ever migrates — so the policy shows exactly how
 * far static planning alone carries a heterogeneous-memory system,
 * the ablation point between the packed references (no planning) and
 * Sentinel (planning + migration).
 *
 * The fast-tier capacity invariant holds by construction: the budget
 * is the capacity rounded *down* to whole pages, and a page below the
 * budget boundary is only ever first-mapped by a tensor preferring
 * fast, so fast occupancy never exceeds the budget.
 */

#ifndef SENTINEL_BASELINES_PLANNED_HH
#define SENTINEL_BASELINES_PLANNED_HH

#include <memory>

#include "dataflow/policy.hh"
#include "plan/offset_planner.hh"

namespace sentinel::baselines {

class PlannedPolicy : public df::MemoryPolicy
{
  public:
    std::string name() const override { return "planned"; }

    void onTrainingStart(df::Executor &ex) override;

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;

    /** Address-space high-water of the offline plan. */
    std::uint64_t footprint() const { return plan_.footprint; }

  private:
    plan::OffsetPlan plan_;
    std::vector<std::uint64_t> addr_;  ///< per tensor id
    std::vector<bool> fast_;           ///< per tensor id
    std::uint64_t fast_budget_ = 0;
};

std::unique_ptr<df::MemoryPolicy> makePlanned();

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_PLANNED_HH
