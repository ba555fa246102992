/**
 * @file
 * The Sentinel runtime policy (Sec. IV of the paper).
 *
 * Combines every mechanism of the paper:
 *
 *  1. profile-driven data reorganization (Sec. IV-B): preallocated
 *     tensors get exclusive pages; long-lived tensors living in
 *     exactly the same layer span are co-allocated contiguously in
 *     descending access-count order; tensors of different classes
 *     never share a page — page-level false sharing is gone;
 *  2. a reserved fast-memory pool for short-lived tensors
 *     (Sec. IV-C): allocated there, pinned, never migrated;
 *  3. adaptive layer-based migration (Sec. IV-D): the interval planner
 *     picks MIL; prefetches are issued at interval starts (hottest
 *     first) and overlap with training; tensors are demoted
 *     mid-interval as soon as the rest of the interval no longer needs
 *     them (avoiding Case 2); Case 3 (migration unfinished in time) is
 *     resolved by a test-and-trial between stalling and reading from
 *     slow memory;
 *  4. Sentinel-GPU (Sec. V): identical, except Case 3 must always
 *     stall — the GPU cannot compute out of host memory.
 *
 * The ablation flags reproduce Fig. 13's breakdown: "direct migration"
 * (no interval planning, no reservation), "w/ det. MI" (planning but
 * no reservation), "w/ all".
 */

#ifndef SENTINEL_CORE_SENTINEL_POLICY_HH
#define SENTINEL_CORE_SENTINEL_POLICY_HH

#include <memory>
#include <optional>
#include <vector>

#include "alloc/arena.hh"
#include "alloc/reserved_pool.hh"
#include "core/interval_planner.hh"
#include "core/migration_plan.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"
#include "plan/offset_planner.hh"
#include "profile/profile_db.hh"
#include "telemetry/audit.hh"
#include "telemetry/session.hh"

namespace sentinel::core {

/** How buildStaticLayout lays out the long-lived co-allocated set. */
enum class LayoutPlanner {
    /** The paper's rule: per-lifetime-class regions, members packed in
     *  descending hotness (Sec. IV-B).  The default. */
    Greedy,
    /** Offline interval-graph offset assignment (plan::assignOffsets):
     *  disjoint-lifetime tensors share bytes, shrinking the static
     *  footprint when lifetimes interleave. */
    Interval,
};

struct SentinelOptions {
    /** Use the Eq. 1/Eq. 2 planner; off = per-layer "direct" migration. */
    bool use_interval_planner = true;

    /**
     * Experimental (Sec. IV-E): per-interval dynamic lengths instead
     * of one global MIL.  The paper rejects this for its search cost
     * and minimal benefit; kept here to measure that trade-off.
     */
    bool use_dynamic_intervals = false;

    /** Reserve fast memory for short-lived tensors. */
    bool use_reserved_pool = true;

    /** Apply the co-allocation rules (off = packed TF-style layout). */
    bool use_coalloc = true;

    /** Solver for the static co-allocation layout (greedy keeps the
     *  paper's behaviour bit-for-bit; interval plugs in src/plan/). */
    LayoutPlanner layout_planner = LayoutPlanner::Greedy;

    /** GPU mode: Case 3 always stalls; no test-and-trial. */
    bool gpu_mode = false;

    /**
     * Force a specific migration interval length (0 = let the planner
     * choose).  Used by the Fig. 5 sweep.
     */
    int forced_mil = 0;

    /** One-time planning cost charged to the first step. */
    Tick planner_overhead = 100 * kUsec;

    /** Fraction of fast memory the reservation may occupy at most. */
    double rs_cap_fraction = 0.6;

    /**
     * Online divergence monitoring: compare each steady step against
     * the planner's estimate and re-plan mid-training when the run no
     * longer matches the profile (degraded bandwidth, shrunk capacity,
     * drifted layer times — the scenarios the fault injector creates).
     */
    bool enable_divergence_monitor = true;

    /** A step counts as divergent when its observed time exceeds
     *  (1 + divergence_threshold) x the planned step time. */
    double divergence_threshold = 0.25;

    /** Consecutive divergent steps required before re-planning. */
    int divergence_patience = 2;

    /** Minimum steps between two re-plans (let the new plan settle). */
    int replan_cooldown = 3;

    /** Hard cap on mid-training re-plans per run. */
    int max_replans = 4;

    /** Planner cost charged to the step that triggers a re-plan. */
    Tick replan_overhead = 50 * kUsec;

    /** Re-runs of an inconclusive test-and-trial (a Case-2/Case-3
     *  perturbation landing in exactly one of the two trial steps). */
    int max_trial_retries = 2;
};

class SentinelPolicy : public df::MemoryPolicy
{
  public:
    SentinelPolicy(const prof::ProfileDatabase &db,
                   SentinelOptions opts = {});

    std::string name() const override;

    // --- MemoryPolicy ------------------------------------------------------

    void onTrainingStart(df::Executor &ex) override;
    void onStepBegin(df::Executor &ex, int step) override;
    void onStepEnd(df::Executor &ex, int step) override;
    void onLayerBegin(df::Executor &ex, int layer) override;
    void onLayerEnd(df::Executor &ex, int layer) override;

    df::AllocDecision allocate(df::Executor &ex,
                               const df::TensorDesc &tensor) override;
    void onTensorFreed(df::Executor &ex, df::TensorId id,
                       const df::TensorPlacement &pl) override;
    void onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                       std::vector<df::AccessSegment> &out) override;
    bool stallForInflight(df::Executor &ex, mem::PageId page) override;

    // --- Introspection (Table III, Fig. 13, tests) --------------------------

    const PlannerResult &plannerResult() const { return planner_result_; }
    const MigrationPlan &migrationPlan() const { return plan_; }
    int case3Events() const { return case3_events_; }
    int trialStepsUsed() const { return trial_steps_; }
    /** Resolved Case-3 handling after test-and-trial. */
    bool stallModeChosen() const { return mode_stall_; }
    /** True once the test-and-trial reached a decision (or never ran). */
    bool trialDecided() const;
    /** Human-readable trial state for harness stats. */
    const char *trialStateName() const;
    /** Steps the divergence monitor flagged as off-plan. */
    int divergenceEvents() const { return divergence_events_; }
    /** Mid-training re-plans performed. */
    int replans() const { return replans_; }
    /** Planner's step-time estimate the monitor compares against. */
    Tick plannedStepTime() const { return planned_step_time_; }
    std::uint64_t reservedPoolBytes() const;
    std::uint64_t reservedPoolPeak() const;

    /** Prefetches queued but not yet fully migrated (tests), in
     *  queue order.  A snapshot: the live queue is a reused ring. */
    std::vector<df::TensorId> pendingPrefetch() const
    {
        return { pending_prefetch_.begin() +
                     static_cast<std::ptrdiff_t>(pending_head_),
                 pending_prefetch_.end() };
    }

    /**
     * Demand-eviction victim order at the current layer: the demotion
     * schedule walked backward, minus tensors protected because they
     * are queued or just prefetched for the upcoming interval.  The
     * test oracle of evictForSpace(), which walks the same order in
     * place and stops once it has reclaimed enough.
     */
    std::vector<df::TensorId>
    evictionCandidates(const df::Executor &ex) const;

    /**
     * Static (co-allocation) address assigned to @p id, or ~0 if the
     * tensor is dynamically placed (pool / packed overflow).  Valid
     * after training start; exposed for tests and introspection.
     */
    mem::VirtAddr staticAddress(df::TensorId id) const;

    /**
     * Address-space high-water of the static co-allocation region
     * (bytes past kCoallocBase), valid after training start.  This is
     * the quantity the layout planners compete on: the interval solver
     * must never exceed the greedy per-class packing.
     */
    std::uint64_t layoutFootprint() const { return layout_footprint_; }

    /**
     * Attach a telemetry session (null detaches): interval boundaries,
     * prefetch intents, divergence detections and re-plans are then
     * emitted as structured events, plus monitor counters.
     */
    void setTelemetry(telemetry::Session *session);

    /**
     * Attach a decision audit log (null detaches).  Every prefetch,
     * demand promotion, demotion, demand eviction, pool pin and
     * re-plan then appends one AuditRecord carrying the tensor, the
     * reason code, and the plan context in force — see
     * telemetry/audit.hh.  Records for scheduled migrations share
     * their timestamp with the corresponding Promotion/Demotion
     * telemetry event (the trace-join key).
     */
    void setAudit(telemetry::AuditLog *audit) { audit_ = audit; }
    telemetry::AuditLog *audit() { return audit_; }

  private:
    enum class TrialState {
        Idle,       ///< no Case 3 seen yet
        Pending,    ///< Case 3 seen; trials start next step
        TrialStall, ///< measuring the stall variant
        TrialLeave, ///< measuring the leave-in-slow variant
        Decided,
    };

    void buildStaticLayout(const df::Graph &graph);
    /** Run the planner on @p in and (re)build plan_ + the per-layer
     *  time baseline the divergence monitor compares against. */
    void computePlan(const PlannerInputs &in, std::uint64_t rs_cap);
    /** Mid-training re-plan against the *observed* environment. */
    void replan(df::Executor &ex, int step);
    void issuePrefetch(df::Executor &ex, int interval);
    void stagePrefetches(df::Executor &ex, int interval);
    /**
     * Plan-guided demand eviction: when an allocation cannot fit,
     * demote tensors the plan would evict soon anyway (they are the
     * ones with the most distant next use).  Returns after scheduling;
     * space frees as the transfers land.
     */
    void evictForSpace(df::Executor &ex, std::uint64_t bytes_needed);
    /**
     * GPU demand fault on the run at @p page, host-resident and idle
     * in state @p rs: the pages that fit on the device are faulted in
     * as one series (one segment); on a full device, one page waits
     * for the evictions in flight.
     */
    void demandFault(df::Executor &ex, mem::PageId page,
                     const mem::PageRunState &rs,
                     std::vector<df::AccessSegment> &out);
    /** Retry queued prefetches (space frees as demotions complete). */
    void drainPrefetchQueue(df::Executor &ex);
    void issueDemotions(df::Executor &ex, int layer);
    bool isPoolPage(mem::PageId page) const;
    /**
     * Refill batch_ with @p pl's idle pages resident in tiers
     * [lo, hi], one PageRun per uniform residentRange() run.  Pool
     * tensors are never migrated and leave the batch empty.
     *
     * @return the number of pages gathered.
     */
    std::uint64_t gatherRuns(mem::HeterogeneousMemory &hm,
                             const df::TensorPlacement &pl, Tick now,
                             unsigned lo, unsigned hi);

    /** Migration interval containing the current layer (-1 pre-plan). */
    std::int16_t currentInterval() const;
    /** Append one decision record stamped with the plan context. */
    void auditAppend(df::Executor &ex, telemetry::AuditReason reason,
                     std::uint32_t tensor, std::uint64_t bytes);
    /** Same, at an explicit decision time @p ts (deferred migrations
     *  whose transfer is scheduled later than ex.now()). */
    void auditAppendAt(df::Executor &ex, Tick ts,
                       telemetry::AuditReason reason, std::uint32_t tensor,
                       std::uint64_t bytes);

    const prof::ProfileDatabase &db_;
    SentinelOptions opts_;

    PlannerResult planner_result_;
    MigrationPlan plan_;
    bool planned_ = false;

    // Layout state.
    static constexpr mem::VirtAddr kPreallocBase = 0;
    static constexpr mem::VirtAddr kCoallocBase = 1ull << 44;
    static constexpr mem::VirtAddr kPoolBase = 2ull << 44;
    static constexpr mem::VirtAddr kPackedBase = 3ull << 44;

    std::vector<mem::VirtAddr> static_addr_; ///< per tensor, or kInvalid
    std::uint64_t layout_footprint_ = 0;     ///< co-alloc region bytes
    std::unique_ptr<alloc::ReservedPool> pool_;
    alloc::VirtualArena packed_;
    // Dynamic allocations, dense per tensor id (kInvalidAddr = none):
    // graph ids are compact, so a vector replaces the hash lookups the
    // alloc/free cycle used to pay every tensor birth/death.
    std::vector<mem::VirtAddr> pool_allocs_;
    std::vector<mem::VirtAddr> packed_allocs_;

    // Runtime state.
    /**
     * Prefetch queue: a vector consumed from pending_head_ so pops
     * don't shift, with the dead prefix compacted in place once it
     * outgrows the live tail.  Rotation (retry-later) appends to the
     * back; after warm-up the buffer's capacity is steady and queue
     * traffic allocates nothing.
     */
    std::vector<df::TensorId> pending_prefetch_;
    std::size_t pending_head_ = 0;
    std::vector<mem::PageRun> batch_; ///< reused migration batch buffer
    /** Per tensor: the evictForSpace() call that last protected or
     *  visited it (its epoch), so a call needs no sets. */
    std::vector<std::uint32_t> evict_mark_;
    std::uint32_t evict_epoch_ = 0;
    int current_layer_ = 0;
    bool mode_stall_ = true;
    TrialState trial_ = TrialState::Idle;
    Tick step_begin_ = 0;
    Tick trial_stall_time_ = 0;
    int case3_events_ = 0;
    int trial_steps_ = 0;

    // Test-and-trial robustness (S3): perturbations observed during
    // each trial step; a mismatch between the two steps voids the
    // stall-vs-leave comparison and the trial is re-run.
    int perturb_this_step_ = 0;
    int trial_stall_perturb_ = 0;
    int trial_retries_ = 0;

    // Divergence monitor.
    std::vector<Tick> planned_layer_;  ///< per-layer planner estimate
    std::vector<Tick> observed_layer_; ///< per-layer time, current step
    Tick planned_step_time_ = 0;
    Tick layer_begin_ = 0;
    Tick lag_this_step_ = 0;           ///< prefetch lag at interval starts
    int divergent_streak_ = 0;
    int divergence_events_ = 0;
    int replans_ = 0;
    int last_replan_step_ = -1;

    telemetry::Session *telemetry_ = nullptr;
    telemetry::AuditLog *audit_ = nullptr;
    telemetry::Counter *divergence_ctr_ = nullptr;
    telemetry::Counter *replan_ctr_ = nullptr;
    telemetry::Counter *lag_ctr_ = nullptr;
    telemetry::Counter *evict_ctr_ = nullptr;
    telemetry::Counter *blocked_ctr_ = nullptr;

    static constexpr mem::VirtAddr kInvalidAddr = ~0ull;
};

} // namespace sentinel::core

#endif // SENTINEL_CORE_SENTINEL_POLICY_HH
