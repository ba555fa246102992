/**
 * @file
 * Executor migration-interaction semantics, tested with purpose-built
 * policies: stalls for in-flight prefetches are charged exactly,
 * "leave in slow" reads the source copy, effective-tier overrides
 * bypass residency, and in-flight demotions still serve from fast.
 */

#include <gtest/gtest.h>

#include "alloc/arena.hh"
#include "dataflow/executor.hh"

namespace sentinel::df {
namespace {

/** Two ops in two layers over one 4-page tensor + a sink output. */
Graph
twoLayerGraph()
{
    Graph g("stall", 1);
    TensorId big =
        g.addTensor("big", 4 * mem::kPageSize, TensorKind::Weight, true);
    TensorId out = g.addTensor("out", 1024, TensorKind::Temp);
    g.addOp("l0", OpType::Other, 0, 1e6,
            { { big, false, 4 * mem::kPageSize, 1.0 },
              { out, true, 1024, 1.0 } });
    TensorId out2 = g.addTensor("out2", 1024, TensorKind::Temp);
    g.addOp("l1", OpType::Other, 1, 1e6,
            { { big, false, 4 * mem::kPageSize, 1.0 },
              { out2, true, 1024, 1.0 } });
    g.finalize();
    return g;
}

mem::HeterogeneousMemory
makeHm()
{
    mem::TierParams fast{ "dram", 64 * mem::kPageSize, 50e9, 40e9, 80,
                          80 };
    mem::TierParams slow{ "pmm", 4096 * mem::kPageSize, 6e9, 2e9, 300,
                          100 };
    // 1 GB/s promote with no setup: one page = 4096 ns.
    return mem::HeterogeneousMemory(fast, slow, { 1e9, 1e9, 0 });
}

/** Allocates everything slow; at layer 1 begin, prefetches `big`. */
class PrefetchAtL1 : public MemoryPolicy
{
  public:
    explicit PrefetchAtL1(bool stall) : stall_(stall), arena_(0) {}

    std::string name() const override { return "prefetch-at-l1"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &t) override
    {
        return { arena_.allocate(t.bytes, mem::kPageSize),
                 mem::Tier::Slow };
    }

    void
    onLayerBegin(Executor &ex, int layer) override
    {
        if (layer != 1)
            return;
        const TensorPlacement &pl = ex.placementOf(0);
        const mem::PageRun runs[] = { pl.run() };
        ex.hm().migratePages(runs, mem::Tier::Fast, ex.now());
        issued_at_ = ex.now();
    }

    bool
    stallForInflight(Executor &, mem::PageId) override
    {
        return stall_;
    }

    Tick issued_at_ = -1;

  private:
    bool stall_;
    alloc::VirtualArena arena_;
};

TEST(ExecutorStalls, StallModeWaitsAndReadsFast)
{
    Graph g = twoLayerGraph();
    auto hm = makeHm();
    PrefetchAtL1 policy(/*stall=*/true);
    Executor ex(g, hm, ExecParams{ 1e12, 0 }, policy);
    StepStats s = ex.runStep();

    // The l1 access stalls until the 4-page transfer lands, then reads
    // from fast memory.
    EXPECT_GT(s.exposed_migration, 0);
    EXPECT_LE(s.exposed_migration, 4 * 4096);
    // l0 read big from slow (4 pages, plus the two slow-allocated
    // 1 KiB outputs); l1 read it from fast.
    EXPECT_EQ(s.bytes_slow, 4 * mem::kPageSize + 2048);
    EXPECT_EQ(s.bytes_fast, 4 * mem::kPageSize);
}

TEST(ExecutorStalls, LeaveModeReadsSlowWithoutStall)
{
    Graph g = twoLayerGraph();
    auto hm = makeHm();
    PrefetchAtL1 policy(/*stall=*/false);
    Executor ex(g, hm, ExecParams{ 1e12, 0 }, policy);
    StepStats s = ex.runStep();

    EXPECT_EQ(s.exposed_migration, 0);
    // Both layers read the slow copy (the transfer is still in flight
    // when l1 touches the pages), plus the slow-allocated outputs.
    EXPECT_EQ(s.bytes_slow, 2 * 4 * mem::kPageSize + 2048);
}

/** Serves every access as fast via the effective-tier override. */
class OverridePolicy : public MemoryPolicy
{
  public:
    OverridePolicy() : arena_(0) {}
    std::string name() const override { return "override"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &t) override
    {
        return { arena_.allocate(t.bytes, 64), mem::Tier::Slow };
    }

    PageAccessResult
    onPageAccess(Executor &, mem::PageId, bool) override
    {
        return { 100, mem::Tier::Fast };
    }

  private:
    alloc::VirtualArena arena_;
};

TEST(ExecutorStalls, EffectiveTierOverrideBypassesResidency)
{
    Graph g = twoLayerGraph();
    auto hm = makeHm();
    OverridePolicy policy;
    Executor ex(g, hm, ExecParams{ 1e12, 0 }, policy);
    StepStats s = ex.runStep();

    // Everything is slow-resident, yet every byte is served "fast"
    // (the Memory-Mode pattern), with the injected per-page cost
    // showing up as exposed time.
    EXPECT_EQ(s.bytes_slow, 0u);
    EXPECT_GT(s.bytes_fast, 0u);
    EXPECT_GT(s.exposed_migration, 0);
}

/** Demotes `big` after layer 0; layer 1 reads it mid-demotion. */
class DemoteAtL0End : public MemoryPolicy
{
  public:
    DemoteAtL0End() : arena_(0) {}
    std::string name() const override { return "demote-l0"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &t) override
    {
        return { arena_.allocate(t.bytes, mem::kPageSize),
                 mem::Tier::Fast };
    }

    void
    onLayerEnd(Executor &ex, int layer) override
    {
        if (layer != 0)
            return;
        const mem::PageRun runs[] = { ex.placementOf(0).run() };
        ex.hm().migratePages(runs, mem::Tier::Slow, ex.now());
    }

  private:
    alloc::VirtualArena arena_;
};

TEST(ExecutorStalls, InFlightDemotionStillServesFromFast)
{
    Graph g = twoLayerGraph();
    auto hm = makeHm();
    DemoteAtL0End policy;
    // Huge compute keeps layer 1 short in sim time; the demotion is
    // still in flight when it runs.
    Executor ex(g, hm, ExecParams{ 1e15, 0 }, policy);
    StepStats s = ex.runStep();

    // Reads during an outbound migration come from the (fast) source —
    // no stall, no slow bytes.
    EXPECT_EQ(s.exposed_migration, 0);
    EXPECT_EQ(s.bytes_slow, 0u);
}

} // namespace
} // namespace sentinel::df
