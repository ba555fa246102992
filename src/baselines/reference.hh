/**
 * @file
 * Reference policies: fast-only, slow-only, first-touch NUMA.
 *
 * All three use the same TensorFlow-like packed layout (64-byte
 * alignment, recycled address space, hence page sharing between
 * unrelated tensors) and never migrate.  They differ only in the
 * preferred tier and in how the surrounding experiment sizes the fast
 * tier:
 *
 *  - fast-only  : prefer fast, fast tier sized to hold everything
 *                 (the paper's DRAM-only / GPU-only upper bound);
 *  - slow-only  : prefer slow (the paper's PMM-only lower bound);
 *  - first-touch: prefer fast with fallback to slow once fast fills —
 *                 exactly Linux's default NUMA placement on the
 *                 DRAM+PMM two-node system (Sec. VII-B).
 */

#ifndef SENTINEL_BASELINES_REFERENCE_HH
#define SENTINEL_BASELINES_REFERENCE_HH

#include <memory>
#include <string>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"

namespace sentinel::baselines {

class PackedReferencePolicy : public df::MemoryPolicy
{
  public:
    /** @param prefer_slowest resolve the preference to the chain's
     *         slowest tier at allocation time (slow-only semantics on
     *         chains longer than two tiers). */
    PackedReferencePolicy(std::string name, mem::Tier preferred,
                          bool prefer_slowest = false)
        : name_(std::move(name)), preferred_(preferred),
          prefer_slowest_(prefer_slowest), arena_(0)
    {
    }

    std::string name() const override { return name_; }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        mem::Tier t =
            prefer_slowest_ ? ex.hm().slowestTier() : preferred_;
        return { arena_.allocate(tensor.bytes, 64), t };
    }

    void
    onTensorFreed(df::Executor &, df::TensorId,
                  const df::TensorPlacement &pl) override
    {
        arena_.free(pl.addr, pl.bytes);
    }

    /** Address-space footprint, for the profiling-overhead analysis. */
    std::uint64_t footprint() const { return arena_.highWater(); }

  private:
    std::string name_;
    mem::Tier preferred_;
    bool prefer_slowest_;
    alloc::VirtualArena arena_;
};

/** DRAM-only / GPU-memory-only upper bound. */
std::unique_ptr<df::MemoryPolicy> makeFastOnly();
/** PMM-only lower bound. */
std::unique_ptr<df::MemoryPolicy> makeSlowOnly();
/** Linux first-touch NUMA allocation across the two nodes. */
std::unique_ptr<df::MemoryPolicy> makeFirstTouchNuma();

} // namespace sentinel::baselines

#endif // SENTINEL_BASELINES_REFERENCE_HH
