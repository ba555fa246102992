/**
 * @file
 * The zero-allocation guard: a warm steady-state step must not touch
 * the heap, under sentinel and under the reactive baselines (UM, IAL).
 *
 * The hot loop's scratch buffers (the policy's migration batch and
 * prefetch ring, the executor's segment lists, the migration engine's
 * pooled batch buffers, the SoA page-table chunks) are all grown
 * during warmup and reused afterwards; this test pins that property
 * with the counting operator new from sentinel_alloc_hook.  Linked
 * only into this binary — see common/alloc_hook.hh for the contract.
 * Under sanitizers the hook compiles away and the test skips.
 */

#include <gtest/gtest.h>

#include "baselines/ial.hh"
#include "baselines/unified_memory.hh"
#include "common/alloc_hook.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "telemetry/session.hh"
#include "telemetry/timeseries.hh"

using namespace sentinel;

namespace {

mem::HeterogeneousMemory
makeHm(std::uint64_t fast_bytes)
{
    mem::TierParams fast{ "dram", fast_bytes, 76e9, 50e9, 85, 90 };
    mem::TierParams slow{ "pmm", 64ull << 30, 30e9, 10e9, 300, 120 };
    return mem::HeterogeneousMemory(fast, slow, { 8e9, 6e9, 2000 });
}

/** Heap allocations across 50 steps after an 8-step warmup. */
std::uint64_t
warmStepAllocs(df::Executor &ex)
{
    ex.run(8);
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    return common::allocCount() - before;
}

/** Warm-step allocations of @p policy on resnet32 b32 with a fast tier
 *  of 20% of peak on @p platform, as the harness sizes it. */
std::uint64_t
reactiveCellAllocs(harness::Platform platform, df::MemoryPolicy &policy)
{
    df::Graph g = models::makeModel("resnet32", 32);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    core::RuntimeConfig rc = harness::platformConfig(platform, fast);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Executor ex(g, hm, rc.exec, policy);
    return warmStepAllocs(ex);
}

TEST(ZeroAlloc, SentinelSteadyStateStepDoesNotAllocate)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    auto prof_hm = makeHm(fast);
    prof::Profiler profiler;
    auto profile = profiler.profile(g, prof_hm, df::ExecParams{});

    auto hm = makeHm(fast);
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, df::ExecParams{}, policy);

    // Warmup covers the cold start, Sentinel's test-and-trial steps,
    // and every amortized container growth (scratch vectors reach
    // their high-water marks within a couple of steady steps).
    ex.run(8);

    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations across 50 warm steps";
}

TEST(ZeroAlloc, ThreeTierSentinelSteadyStateStepDoesNotAllocate)
{
    // The staged multi-leg path: prefetches stage slowest->middle and
    // middle->fast, so every batch crosses the closed-form leg chain
    // and the pooled segment store.  (llm:tiny at three tiers still
    // allocates in its warm steps: it runs degraded, ending mid
    // test-and-trial, so it is not a steady state to gate on.)
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("resnet32", 32);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    core::RuntimeConfig rc = harness::platformConfig(
        harness::Platform::Optane, fast, 3, 4 * fast, 0.0);
    mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
    prof::Profiler profiler(rc.profiler);
    auto profile = profiler.profile(g, prof_hm, rc.exec);

    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, rc.exec, policy);
    ex.run(8);
    ASSERT_GT(hm.linkChannel(1, true).numTransfers(), 0u)
        << "no staged transfer crossed the middle link";

    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before)
        << " heap allocations across 50 warm three-tier steps";
}

TEST(ZeroAlloc, DegradedMidTrialSentinelStepDoesNotAllocate)
{
    // bench_baseline's mobilenet cell: b32 with a fast tier of 20% of
    // peak on Optane sits below the planner's lower bound (no feasible
    // MIL, degraded to per-layer migration), and its measured steps
    // (7-9 of 9) fall inside the test-and-trial.  Both that window and
    // the degraded steady state after the trial are gated.
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("mobilenet", 32);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    core::RuntimeConfig rc =
        harness::platformConfig(harness::Platform::Optane, fast);
    mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
    prof::Profiler profiler(rc.profiler);
    auto profile = profiler.profile(g, prof_hm, rc.exec);

    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, rc.exec, policy);
    ex.run(6);
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 3; ++i)
        ex.runStep();
    std::uint64_t in_trial = common::allocCount() - before;
    ASSERT_FALSE(policy.plannerResult().best.feasible)
        << "the cell no longer runs degraded";
    ASSERT_FALSE(policy.trialDecided())
        << "the cell no longer ends mid test-and-trial";
    EXPECT_EQ(in_trial, 0u)
        << in_trial << " heap allocations across 3 mid-trial steps";

    std::uint64_t after_trial = warmStepAllocs(ex);
    ASSERT_TRUE(policy.trialDecided());
    EXPECT_EQ(after_trial, 0u)
        << after_trial << " heap allocations across 50 warm degraded steps";
}

TEST(ZeroAlloc, UnifiedMemorySteadyStateStepDoesNotAllocate)
{
    // GPU demand paging: every step faults pages in one at a time and
    // evicts LRU batches, through the page-indexed LRU and the reused
    // victim buffer.
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    baselines::UnifiedMemoryPolicy policy;
    std::uint64_t allocs = reactiveCellAllocs(harness::Platform::Gpu, policy);
    ASSERT_GT(policy.demandFaults(), 0u) << "no demand fault to gate on";
    EXPECT_EQ(allocs, 0u) << allocs
                          << " heap allocations across 50 warm UM steps";
}

TEST(ZeroAlloc, GpuSentinelUnderPressureStepDoesNotAllocate)
{
    // bench_baseline's GPU Sentinel cell: dcgan b52 on a 75 MiB device
    // runs degraded, and its demand faults evict every step through
    // the in-place victim walk.  Off-plan steps make the divergence
    // monitor re-plan, which allocates in the planner, until its
    // budget is spent; the warm window starts after that.
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("dcgan", 52);
    core::RuntimeConfig rc =
        harness::platformConfig(harness::Platform::Gpu, 75ull << 20);
    mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
    prof::Profiler profiler(rc.profiler);
    auto profile = profiler.profile(g, prof_hm, rc.exec);

    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    core::SentinelOptions opts;
    opts.gpu_mode = true;
    core::SentinelPolicy policy(profile.db, opts);
    telemetry::Session session;
    df::Executor ex(g, hm, rc.exec, policy);
    ex.setTelemetry(&session);
    policy.setTelemetry(&session);
    ex.run(16);
    ASSERT_EQ(policy.replans(), opts.max_replans);
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    std::uint64_t allocs = common::allocCount() - before;
    ASSERT_GT(session.metrics().counter("sentinel.demand_evictions").value(),
              0u)
        << "no demand eviction to gate on";
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations across 50 warm GPU Sentinel steps";
}

TEST(ZeroAlloc, IalSteadyStateStepDoesNotAllocate)
{
    // Hint faults, promotions and FIFO evictions: the heat counts and
    // in-list flags are page-indexed, the FIFO is a grow-only ring.
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    baselines::IalPolicy policy;
    std::uint64_t allocs =
        reactiveCellAllocs(harness::Platform::Optane, policy);
    ASSERT_GT(policy.promotionsRequested(), 0u) << "IAL never promoted";
    EXPECT_EQ(allocs, 0u) << allocs
                          << " heap allocations across 50 warm IAL steps";
}

TEST(ZeroAlloc, LiveObservabilityPlaneDoesNotAllocateInSteadyState)
{
    if (!common::allocHookActive())
        GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    auto prof_hm = makeHm(fast);
    prof::Profiler profiler;
    auto profile = profiler.profile(g, prof_hm, df::ExecParams{});

    auto hm = makeHm(fast);
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, df::ExecParams{}, policy);

    // The live plane attached: event ring + metric registry + step
    // board.  The board's rings are sized at construction, so the
    // executor's per-step feed (pushes into eight series plus the
    // percentile sketches) must stay off the heap; only SCRAPES
    // (render/snapshot) may allocate, and none happen inside the loop.
    telemetry::Session session;
    telemetry::StepBoard board;
    session.attachStepBoard(&board);
    ex.setTelemetry(&session);

    ex.run(8);

    std::uint64_t before = common::allocCount();
    for (int i = 0; i < 50; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before)
        << " heap allocations across 50 warm steps with the "
           "observability plane enabled";
    EXPECT_EQ(board.steps(), 58u); // the board really was fed
}

} // namespace
