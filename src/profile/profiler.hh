/**
 * @file
 * The dynamic profiler: one training step, tensor-level counts.
 *
 * Reproduces Sec. III-A / Sec. VI of the paper:
 *
 *  - the profiling step runs with a page-aligned allocator (one tensor
 *    per page) entirely out of slow memory, with every page poisoned,
 *    so OS page-access counts map 1:1 to tensors;
 *  - the runtime side records allocation/free and layer boundaries,
 *    yielding size + lifetime + layer association;
 *  - fault servicing makes the profiling step several times slower
 *    (amortized over millions of steps, Sec. VII-B);
 *  - page alignment inflates the footprint only during this step
 *    (memory overhead, Table III);
 *  - in GPU mode, profiling runs through customized pinned host
 *    memory and pays a one-time two-copy synchronization (Sec. V).
 *
 * A second entry point profiles at *page* level with the normal packed
 * allocator — the misleading view Observation 3 warns about; the
 * characterization bench contrasts the two.
 */

#ifndef SENTINEL_PROFILE_PROFILER_HH
#define SENTINEL_PROFILE_PROFILER_HH

#include <cstdint>
#include <vector>

#include "dataflow/executor.hh"
#include "mem/hm.hh"
#include "profile/profile_db.hh"

namespace sentinel::prof {

struct ProfilerOptions {
    /** Cost of one protection fault + PTE poison + TLB flush. */
    Tick fault_cost = 2 * kUsec;

    /** GPU mode: profile through customized pinned host memory. */
    bool gpu_pinned = false;

    /** Link bandwidth used for the GPU two-copy synchronization. */
    double gpu_link_bw = 12e9;
};

struct ProfileResult {
    ProfileDatabase db;

    /** Stats of the profiling step itself (slower than steady state). */
    df::StepStats profiling_step;

    /** GPU two-copy synchronization overhead (0 in CPU mode). */
    Tick sync_overhead = 0;

    /** Peak footprint under one-tensor-per-page allocation. */
    std::uint64_t page_aligned_peak = 0;

    /** Peak footprint under the normal packed allocation. */
    std::uint64_t packed_peak = 0;

    /** Profiling-phase memory overhead (Table III: a few percent). */
    double
    memoryOverhead() const
    {
        if (packed_peak == 0)
            return 0.0;
        return static_cast<double>(page_aligned_peak) /
                   static_cast<double>(packed_peak) -
               1.0;
    }

    /** Slowdown of the profiling step vs. a fault-free step. */
    double
    profilingSlowdown() const
    {
        Tick clean = profiling_step.step_time -
                     profiling_step.fault_overhead - sync_overhead;
        if (clean <= 0)
            return 1.0;
        return static_cast<double>(profiling_step.step_time) /
               static_cast<double>(clean);
    }
};

/** One page's counts under page-level (packed) profiling. */
struct PageLevelEntry {
    std::uint64_t accesses = 0;
};

class Profiler
{
  public:
    explicit Profiler(ProfilerOptions opts = {}) : opts_(opts) {}

    /**
     * Run the one-step tensor-level profiling of @p graph against a
     * fresh slow-memory-backed executor on @p hm.
     */
    ProfileResult profile(const df::Graph &graph,
                          mem::HeterogeneousMemory &hm,
                          const df::ExecParams &params);

    /**
     * Page-level profiling with the normal packed allocator: returns
     * the access count of every page touched during one step.  This
     * is the traditional (misleading) view of Observation 3.
     */
    std::vector<PageLevelEntry> profilePageLevel(
        const df::Graph &graph, mem::HeterogeneousMemory &hm,
        const df::ExecParams &params);

  private:
    ProfilerOptions opts_;
};

} // namespace sentinel::prof

#endif // SENTINEL_PROFILE_PROFILER_HH
