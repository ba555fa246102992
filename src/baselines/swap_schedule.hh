/**
 * @file
 * Shared runtime for schedule-driven swapping baselines.
 *
 * AutoTM, SwapAdvisor, and vDNN all boil down to the same runtime
 * machinery: a per-tensor placement (pinned fast / swapped / slow) and
 * per-layer swap-in / swap-out lists, executed over a packed
 * (TensorFlow-style) layout.  They differ in the *solver* that builds
 * the schedule and in whether moves are synchronous (AutoTM exposes
 * every move to the critical path; the others overlap).
 *
 * This base class executes such a schedule; each baseline subclasses
 * it and fills in the schedule at training start.
 */

#ifndef SENTINEL_BASELINES_SWAP_SCHEDULE_HH
#define SENTINEL_BASELINES_SWAP_SCHEDULE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"

namespace sentinel::baselines {

/** Where the solver decided a tensor lives. */
enum class Placement : std::uint8_t {
    Slow,    ///< always slow memory
    PinFast, ///< fast for its whole lifetime
    Swap,    ///< fast around its uses, slow in between
};

class ScheduledSwapPolicy : public df::MemoryPolicy
{
  public:
    ScheduledSwapPolicy(std::string name, bool sync_moves);

    std::string name() const override { return name_; }

    void onTrainingStart(df::Executor &ex) override;
    void onLayerBegin(df::Executor &ex, int layer) override;
    void onLayerEnd(df::Executor &ex, int layer) override;

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    Placement placementOf(df::TensorId id) const;

  protected:
    /**
     * Subclass hook: fill placement_ / swap_in_at_ / swap_out_at_.
     * Called once from onTrainingStart.
     */
    virtual void buildSchedule(df::Executor &ex) = 0;

    /** Charged once at training start (solver cost). */
    virtual Tick decisionOverhead() const { return 0; }

    std::vector<Placement> placement_;
    std::vector<std::vector<df::TensorId>> swap_in_at_;
    std::vector<std::vector<df::TensorId>> swap_out_at_;

  private:
    /** @return true if every page is at/headed to @p dst. */
    bool migrateTensor(df::Executor &ex, df::TensorId id, mem::Tier dst,
                       bool stall);

    std::string name_;
    bool sync_moves_;
    bool scheduled_ = false;
    alloc::VirtualArena arena_;

    /** Swap-ins that could not fully reserve device memory yet; the
     *  runtime retries them as evictions free space (real swapping
     *  runtimes block or retry exactly the same way). */
    std::vector<df::TensorId> pending_in_;
};

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_SWAP_SCHEDULE_HH
