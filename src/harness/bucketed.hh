/**
 * @file
 * Dynamic-graph support via bucketed profiling (Sec. IV-E).
 *
 * Frameworks with dynamic graphs generate a differently-shaped
 * dataflow per batch, depending on the input size.  Sentinel's answer
 * is to bucketize input sizes into a small number of buckets (at most
 * ten), profile each bucket's representative graph once, and select
 * the matching plan per training step.  Control-flow changes are the
 * degenerate case: a batch whose graph matches no profiled bucket
 * triggers a fresh profiling step for it.
 *
 * This facade keeps one Sentinel Cell (profile, policy, memory system,
 * executor) per bucket over a shared platform description and
 * dispatches steps by bucket key.
 */

#ifndef SENTINEL_HARNESS_BUCKETED_HH
#define SENTINEL_HARNESS_BUCKETED_HH

#include <functional>
#include <map>
#include <memory>

#include "harness/cell.hh"

namespace sentinel::harness {

class BucketedRuntime
{
  public:
    /** @param make_graph builds the representative graph of a bucket
     *         (e.g. the padded sequence length -> its step graph). */
    BucketedRuntime(std::function<df::Graph(int)> make_graph,
                    core::RuntimeConfig cfg, int max_buckets = 10);

    /**
     * Run one training step whose input falls into @p bucket.  The
     * first step of a new bucket profiles it (one instrumented step,
     * like the static case); later steps reuse that bucket's plan.
     */
    df::StepStats step(int bucket);

    /** Number of buckets profiled so far. */
    std::size_t bucketsProfiled() const { return buckets_.size(); }

    /** Total profiling steps spent (one per bucket — the overhead the
     *  paper bounds by allowing at most ten buckets). */
    int profilingSteps() const { return profiling_steps_; }

    /** The per-bucket cell (profiled on first use). */
    Cell &bucket(int key);

  private:
    std::function<df::Graph(int)> make_graph_;
    core::RuntimeConfig cfg_;
    int max_buckets_;
    int profiling_steps_ = 0;
    std::map<int, std::unique_ptr<Cell>> buckets_;
};

} // namespace sentinel::harness

#endif // SENTINEL_HARNESS_BUCKETED_HH
