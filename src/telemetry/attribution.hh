/**
 * @file
 * Stall attribution: decomposes each training step's wall time into
 * named components and charges them to tensors, layers, and migration
 * intervals.
 *
 * The engine sits next to the telemetry session as an optional
 * attachment of the executor / policy / memory system.  The hooks give
 * it *context* (which step, layer, interval, tensor is in flight) and
 * *charges* (ticks added to the simulated clock, classified by why the
 * clock moved).  Because every clock advance inside a step flows
 * through exactly one charge call, the decomposition is exact by
 * construction:
 *
 *     step_time == execution + exposed + alloc + policy
 *                  + fault + recompute          (tick-for-tick)
 *     exposed + alloc == StepStats.exposed_migration
 *     stall events    == StepStats.num_stalls
 *
 * endStep() verifies these identities against the executor's own
 * StepStats and panics on any drift — an attribution that disagrees
 * with the numbers it explains is worse than none.
 *
 * The engine also cross-checks itself against the telemetry event
 * stream (crossCheckEvents): when nothing was dropped from the ring,
 * the sum of Stall event durations must equal the attributed
 * exposed+alloc total.  A ring overflow makes the check indeterminate,
 * which is why EventSink::dropped() is surfaced as a metric.
 */

#ifndef SENTINEL_TELEMETRY_ATTRIBUTION_HH
#define SENTINEL_TELEMETRY_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hh"
#include "telemetry/event_sink.hh"

namespace sentinel::telemetry {

/** Where a step's ticks went. */
enum class AttrComponent : std::uint8_t {
    Execution, ///< op compute/memory time (opTime result)
    Exposed,   ///< migration stalls on the critical path (access path)
    Alloc,     ///< stalls incurred while allocating a tensor
    Policy,    ///< policy decision overhead (planning, re-planning)
    Fault,     ///< profiling protection-fault overhead
    Recompute, ///< Capuchin-style recomputation
};

constexpr std::size_t kNumAttrComponents = 6;

/** Stable lower-case name of @p c (reports, JSON). */
const char *attrComponentName(AttrComponent c);

/** Component totals for one aggregation key (layer, interval, step). */
struct AttrBucket {
    std::array<Tick, kNumAttrComponents> ticks{};
    std::uint64_t stall_events = 0;
    std::uint64_t promoted_bytes = 0;
    std::uint64_t demoted_bytes = 0;

    Tick
    component(AttrComponent c) const
    {
        return ticks[static_cast<std::size_t>(c)];
    }

    /** Sum of every component (== wall time of the key's span). */
    Tick total() const;

    /** Exposed + alloc: migration time on the critical path. */
    Tick exposedMigration() const;

    void add(const AttrBucket &o);
};

/** Stall/alloc time charged to one tensor. */
struct TensorAttr {
    Tick exposed = 0;            ///< access-path stalls
    Tick alloc = 0;              ///< allocation-path stalls
    std::uint64_t stall_events = 0;

    Tick
    exposedMigration() const
    {
        return exposed + alloc;
    }
};

/**
 * Stall time and migration volume charged to one migration link of the
 * tier chain (link i connects tiers i and i+1; a two-tier system has
 * exactly link 0).  The per-link exposed+alloc totals sum tick-exactly
 * to the engine's overall exposed-migration total — endStep() enforces
 * it alongside the step identities.
 */
struct LinkAttr {
    Tick exposed = 0;            ///< access-path stalls on this link
    Tick alloc = 0;              ///< allocation-path stalls on this link
    std::uint64_t stall_events = 0;
    std::uint64_t promoted_bytes = 0; ///< toward-fast bytes on this link
    std::uint64_t demoted_bytes = 0;  ///< toward-slow bytes on this link

    Tick
    exposedMigration() const
    {
        return exposed + alloc;
    }
};

/** One step's attribution plus the StepStats totals it must match. */
struct StepAttribution {
    int step = 0;
    AttrBucket bucket;

    // Claimed totals (copied from StepStats at endStep).
    Tick step_time = 0;
    Tick exposed_migration = 0;
    Tick policy_time = 0;
    Tick fault_overhead = 0;
    Tick recompute_time = 0;
    std::uint64_t num_stalls = 0;

    /** True if every exactness identity holds tick-for-tick. */
    bool exact() const;
};

/** Sentinel "no tensor" context (matches df::kInvalidTensor). */
constexpr std::uint32_t kAttrNoTensor = ~0u;

class AttributionEngine
{
  public:
    AttributionEngine() = default;

    // --- Context hooks (executor / policy) -----------------------------

    void beginStep(int step);

    /**
     * Close the step: record its attribution and verify the exactness
     * identities against the executor's totals.  Panics on drift.
     */
    void endStep(Tick step_time, Tick exposed_migration, Tick policy_time,
                 Tick fault_overhead, Tick recompute_time,
                 std::uint64_t num_stalls);

    /** Layer now executing (-1 outside the layer loop). */
    void setLayer(int layer) { layer_ = layer; }

    /** Migration interval now in force (-1 = no interval plan). */
    void setInterval(int interval) { interval_ = interval; }

    /** Tensor whose pages the executor is walking (access charges). */
    void setAccessTensor(std::uint32_t tensor) { access_tensor_ = tensor; }
    std::uint32_t accessTensor() const { return access_tensor_; }

    /** Allocation of @p tensor begins: stalls charge as Alloc. */
    void beginAlloc(std::uint32_t tensor);
    void endAlloc();

    /**
     * Migration link whose completion the executor is about to stall
     * on (the final leg of the blocking transfer).  Exposed/alloc
     * charges accrue against this link until it changes.  Two-tier
     * systems never need to call this — everything lands on link 0.
     */
    void setStallLink(unsigned link) { stall_link_ = link; }

    // --- Charges (every simulated-clock advance in a step) -------------

    /**
     * @p t ticks covering @p events distinct stalls went to @p c.  An
     * Exposed charge while an allocation is open (beginAlloc) counts
     * as Alloc: evict-for-space waits are the allocation's fault, not
     * the access path's.  Charges outside a step are dropped.
     */
    void charge(AttrComponent c, Tick t, std::uint64_t events);

    /** One leg of a migration batch was scheduled on @p link. */
    void noteMigration(unsigned link, bool promote, std::uint64_t bytes);

    // --- Results --------------------------------------------------------

    const std::vector<StepAttribution> &steps() const { return steps_; }

    /** Aggregates across all recorded steps, sorted by key.  The maps
     *  are materialized lazily from the dense charge slots on first
     *  use after new charges (report-time cost, not charge-time). */
    const std::map<int, AttrBucket> &byLayer() const
    {
        refreshMaps();
        return by_layer_;
    }
    const std::map<int, AttrBucket> &byInterval() const
    {
        refreshMaps();
        return by_interval_;
    }
    const std::map<std::uint32_t, TensorAttr> &byTensor() const
    {
        refreshMaps();
        return by_tensor_;
    }

    /** Per-link totals, indexed by link id (slot i = link i).  Links
     *  that never stalled nor moved bytes stay zero. */
    const std::vector<LinkAttr> &byLink() const { return link_slots_; }

    /** Whole-run component totals. */
    AttrBucket totals() const;

    /** True if every recorded step passed its exactness check. */
    bool allExact() const;

    /**
     * Verify the engine against the event stream: with no ring drops,
     * Stall event durations must sum to the attributed exposed+alloc
     * total.  Returns false (and fills @p why) on mismatch; a sink
     * that dropped events yields true with a caveat in @p why.
     */
    bool crossCheckEvents(const EventSink &sink,
                          std::string *why = nullptr) const;

    void clear();

  private:
    /** Slot @p idx of @p v, growing the vector as needed. */
    template <typename T>
    static T &
    slotAt(std::vector<T> &v, std::size_t idx)
    {
        if (idx >= v.size())
            v.resize(idx + 1);
        return v[idx];
    }

    /** Rebuild the sorted map views from the dense slots if stale. */
    void refreshMaps() const;

    // Current context.
    int step_ = -1;
    int layer_ = -1;
    int interval_ = -1;
    std::uint32_t access_tensor_ = kAttrNoTensor;
    std::uint32_t alloc_tensor_ = kAttrNoTensor;
    unsigned stall_link_ = 0;
    bool in_alloc_ = false;
    bool in_step_ = false;

    AttrBucket current_;
    /** Cumulative attributed exposed+alloc (link-sum invariant). */
    Tick exposed_cum_ = 0;

    std::vector<StepAttribution> steps_;
    std::vector<LinkAttr> link_slots_;

    // Dense charge slots: index = key + 1, so the "no context" keys
    // (layer/interval -1, tensor kAttrNoTensor via uint32 wrap-around)
    // land in slot 0.  A charge is two or three vector indexings; the
    // map views below exist only for report-time consumers.
    std::vector<AttrBucket> layer_slots_;
    std::vector<AttrBucket> interval_slots_;
    std::vector<TensorAttr> tensor_slots_;

    // Lazily materialized views.  A slot whose every field is zero was
    // never charged (charge() rejects all-zero charges), so the
    // rebuild emits exactly the key set the eager maps used to hold.
    mutable bool maps_stale_ = false;
    mutable std::map<int, AttrBucket> by_layer_;
    mutable std::map<int, AttrBucket> by_interval_;
    mutable std::map<std::uint32_t, TensorAttr> by_tensor_;
};

} // namespace sentinel::telemetry

#endif // SENTINEL_TELEMETRY_ATTRIBUTION_HH
