/**
 * @file
 * The training-step executor: the simulated TensorFlow runtime.
 *
 * Runs a Graph against a HeterogeneousMemory under a MemoryPolicy,
 * producing per-step statistics.  It owns the simulated clock, the
 * tensor -> placement table, and page reference counting (multiple
 * tensors may share a page; the page lives while any of them does).
 * Live tensors never share bytes, so only a tensor's first and last
 * pages can be shared, and only they carry a count, in a table sized
 * once to the graph (EdgeRefs): allocating or freeing a tensor updates
 * at most two counts and maps or unmaps the pages between them as one
 * run, which a free hands the policy in one onRangeUnmapped() call.
 *
 * Each tensor use is walked once, as runs of pages: the policy's
 * onRangeAccess() resolves a prefix of the remaining extent, and a
 * segment without a forced tier is split into maximal runs that share
 * one resident tier.  Traffic, time and profiling faults are charged
 * once per run; a page still in flight is resolved on its own.
 *
 * Optional attachments:
 *  - an AccessTracker models the paper's PTE-poisoning profiler
 *    (counts page accesses, charges fault overhead to the step);
 *  - a TraceRecorder captures per-tier traffic for Fig. 9;
 *  - a telemetry::Session records structured events (op/step spans,
 *    stalls, policy decisions) for Chrome-trace export, and counters
 *    for CSV/JSON export that sum the returned StepStats.
 *
 * StepStats is the one per-step report: every other view of a step
 * (session counters, attribution's exactness check, the server's
 * per-job series) is read from it or checked against it.
 */

#ifndef SENTINEL_DATAFLOW_EXECUTOR_HH
#define SENTINEL_DATAFLOW_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "dataflow/cost_model.hh"
#include "dataflow/edge_refs.hh"
#include "dataflow/graph.hh"
#include "dataflow/placement.hh"
#include "dataflow/policy.hh"
#include "dataflow/step_stats.hh"
#include "mem/access_tracker.hh"
#include "mem/hm.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"
#include "telemetry/attribution.hh"
#include "telemetry/session.hh"

namespace sentinel::df {

class Executor
{
  public:
    Executor(const Graph &graph, mem::HeterogeneousMemory &hm,
             ExecParams params, MemoryPolicy &policy);

    /**
     * Run one training step (forward + backward + update).  The first
     * call triggers onTrainingStart() and allocates preallocated
     * tensors.
     */
    StepStats runStep();

    /** Run @p n steps and return their stats. */
    std::vector<StepStats> run(int n);

    // --- State queried by policies ----------------------------------------

    Tick now() const { return now_; }
    int currentStep() const { return step_counter_; }
    const Graph &graph() const { return graph_; }
    mem::HeterogeneousMemory &hm() { return hm_; }
    const ExecParams &params() const { return params_; }
    const StepStats &currentStats() const { return stats_; }

    bool isAllocated(TensorId id) const;
    /** Placement of a live tensor (panics if not allocated). */
    const TensorPlacement &placementOf(TensorId id) const;
    /**
     * Number of live tensors whose placement spans @p page (0 if
     * unmapped).  A scan of the live placements, for tests.
     */
    int pageRefCount(mem::PageId page) const;

    // --- Time charging (policy hooks use these) -----------------------------

    /** Stall the critical path waiting for migration. */
    void chargeExposed(Tick t);
    /** Charge @p t of exposed time covering @p events distinct stalls. */
    void chargeExposedEvents(Tick t, std::uint64_t events);
    /** Stall until absolute time @p t (no-op if already past). */
    void stallUntil(Tick t);
    /** Charge policy decision overhead. */
    void chargePolicy(Tick t);
    /** Charge recomputation time (Capuchin). */
    void chargeRecompute(Tick t);

    // --- Profiling attachments ----------------------------------------------

    /** Count and charge profiling faults with @p tracker, which takes
     *  every mapped page for poisoned, as the profiler poisons each
     *  page it maps: attach it before the first step. */
    void setAccessTracker(mem::AccessTracker *tracker) { tracker_ = tracker; }
    void setTraceRecorder(sim::TraceRecorder *rec) { trace_ = rec; }

    /**
     * Attach a fault injector (null detaches).  At each step's start
     * the executor folds the schedule and applies bandwidth/capacity
     * scales and channel stalls to the memory system; per-op compute
     * and traffic are perturbed inline.  Policies observe the faults
     * only through their effects — exactly like a real runtime whose
     * environment degrades under it.
     */
    void setFaultInjector(sim::FaultInjector *inj) { chaos_ = inj; }

    /** Layer currently executing (-1 outside the layer loop). */
    int currentLayer() const { return current_layer_; }

    /**
     * Attach a telemetry session (null detaches).  When attached, the
     * executor emits step/op spans, stall and policy-decision events,
     * records stall and op latency histograms, and at each step end
     * adds that step's StepStats traffic and fast-tier peak to the
     * session's counters.  Telemetry never perturbs simulated time:
     * stats with and without a session are bit-identical.
     */
    void setTelemetry(telemetry::Session *session);
    telemetry::Session *telemetry() { return telemetry_; }

    /**
     * Attach a stall-attribution engine (null detaches).  Every
     * simulated-clock advance inside runStep() is reported to the
     * engine classified by cause, together with the layer / tensor /
     * allocation context in force, so the engine can decompose
     * StepStats totals exactly (see telemetry/attribution.hh).  Like
     * telemetry, attribution never perturbs simulated time.
     */
    void setAttribution(telemetry::AttributionEngine *attr) { attr_ = attr; }
    telemetry::AttributionEngine *attribution() { return attr_; }

  private:
    /** Per-use traffic split: page i carries q + (i < rem ? 1 : 0). */
    struct UseTraffic {
        std::uint64_t q = 0;   ///< traffic_bytes / npages
        std::uint64_t rem = 0; ///< traffic_bytes % npages
    };

    void allocateTensor(TensorId id);
    void freeTensor(TensorId id);
    /** Add @p delta (+1 allocate, -1 free) to the refcounts of
     *  @p pl's edge pages.  @return the pages of @p pl no other live
     *  tensor spans: the run to map, or to unmap. */
    mem::PageRun updateEdgeRefs(const TensorPlacement &pl,
                                std::int32_t delta);
    void execOp(const Operation &op);
    void execUseRanges(const TensorUse &use, const TensorPlacement &pl,
                       UseTraffic tr, TensorKind kind, Tick *mem_total);
    /** Charge traffic/time/telemetry for @p run, all served from
     *  @p tier (@p first is the placement's first page), then the
     *  attached tracker's profiling faults for the run. */
    void accountPages(mem::Tier tier, mem::PageRun run, mem::PageId first,
                      UseTraffic tr, const TensorUse &use, TensorKind kind,
                      Tick *mem_total);
    void notePeakFastUsage();

    const Graph &graph_;
    mem::HeterogeneousMemory &hm_;
    ExecParams params_;
    MemoryPolicy &policy_;

    Tick now_ = 0;
    int step_counter_ = 0;
    bool training_started_ = false;

    StepStats stats_;
    std::uint64_t promoted_at_step_start_ = 0;
    std::uint64_t demoted_at_step_start_ = 0;

    // Dense tensor tables indexed by TensorId (graph ids are compact),
    // and a graph-sized table for refcounts: the executor's own
    // bookkeeping is sized once and allocation-free in steady state.
    std::vector<TensorPlacement> placements_;
    std::vector<std::uint8_t> live_;
    /// Live tensors with the page as their first or last page, at most
    /// two entries per tensor.  Interior pages carry no count: their
    /// tensor's bytes cover them, so no other live tensor can span them.
    EdgeRefs edge_refs_;

    std::vector<AccessSegment> seg_buf_; ///< reused per onRangeAccess call

    mem::AccessTracker *tracker_ = nullptr;
    sim::TraceRecorder *trace_ = nullptr;
    sim::FaultInjector *chaos_ = nullptr;
    int current_layer_ = -1;

    telemetry::Session *telemetry_ = nullptr;
    telemetry::AttributionEngine *attr_ = nullptr;
    telemetry::Counter *fast_bytes_ctr_ = nullptr;
    telemetry::Counter *slow_bytes_ctr_ = nullptr;
    telemetry::Gauge *fast_peak_gauge_ = nullptr;
    telemetry::Histogram *stall_hist_ = nullptr;
    telemetry::Histogram *op_hist_ = nullptr;
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_EXECUTOR_HH
