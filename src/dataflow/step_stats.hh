/**
 * @file
 * Per-training-step measurements produced by the Executor.
 *
 * The evaluation section of the paper reports throughput (Figs. 7, 8,
 * 12), exposed migration overhead and recomputation (Fig. 13),
 * migrated volume (Table IV) and bandwidth (Fig. 9); every one of
 * those comes out of the fields below.
 */

#ifndef SENTINEL_DATAFLOW_STEP_STATS_HH
#define SENTINEL_DATAFLOW_STEP_STATS_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/units.hh"
#include "dataflow/tensor.hh"

namespace sentinel::df {

struct StepStats {
    int step = 0;

    /** Wall time of the step (all components included). */
    Tick step_time = 0;

    /** Sum of op compute components (overlaps with mem_time). */
    Tick compute_time = 0;

    /** Sum of op memory components (overlaps with compute_time). */
    Tick mem_time = 0;

    /**
     * Migration overhead exposed on the critical path: stalls waiting
     * for prefetches, on-demand page faults, synchronous tensor moves.
     */
    Tick exposed_migration = 0;

    /** Protection-fault overhead of profiling (profiling step only). */
    Tick fault_overhead = 0;

    /** Recomputation time (Capuchin-style policies only). */
    Tick recompute_time = 0;

    /** Policy decision overhead charged to the step. */
    Tick policy_time = 0;

    /** Access traffic served from each tier. */
    std::uint64_t bytes_fast = 0;
    std::uint64_t bytes_slow = 0;

    /** Number of distinct TensorKind values (array extent below). */
    static constexpr std::size_t kNumTensorKinds = 8;

    /** Slow-tier traffic by tensor kind (indexed by TensorKind). */
    std::array<std::uint64_t, kNumTensorKinds> slow_bytes_by_kind{};

    /** Bounds-checked accumulation into slow_bytes_by_kind. */
    void
    addSlowBytes(TensorKind kind, std::uint64_t bytes)
    {
        auto i = static_cast<std::size_t>(kind);
        SENTINEL_ASSERT(i < kNumTensorKinds, "TensorKind %zu out of range",
                        i);
        slow_bytes_by_kind[i] += bytes;
    }

    /** Migration volume during this step. */
    std::uint64_t promoted_bytes = 0;
    std::uint64_t demoted_bytes = 0;

    /** High-water fast-memory occupancy observed during the step. */
    std::uint64_t peak_fast_used = 0;

    /** Chain length the array below can carry (mem::kMaxTiers). */
    static constexpr std::size_t kMaxTierSlots = 8;

    /** High-water occupancy of every chain tier (index = tier index,
     *  fastest first; slot 0 mirrors peak_fast_used).  Unused slots
     *  stay zero. */
    std::array<std::uint64_t, kMaxTierSlots> peak_tier_used{};

    /** Number of stall events (exposed-migration occurrences). */
    std::uint64_t num_stalls = 0;
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_STEP_STATS_HH
