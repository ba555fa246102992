#include <gtest/gtest.h>

#include "baselines/reference.hh"
#include "dataflow/executor.hh"
#include "mem/access_tracker.hh"
#include "support/test_graphs.hh"

namespace sentinel::df {
namespace {

using sentinel::testing::ToyGraphIds;
using sentinel::testing::makeToyGraph;

mem::HeterogeneousMemory
makeHm(std::uint64_t fast_bytes = 64ull << 20,
       std::uint64_t slow_bytes = 1ull << 30)
{
    mem::TierParams fast{ "dram", fast_bytes, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", slow_bytes, 6e9, 2e9, 300, 100 };
    mem::MigrationParams mig{ 4e9, 2e9, 2000 };
    return mem::HeterogeneousMemory({ fast, slow }, { mig });
}

TEST(Executor, RunsOneStepAndReportsTime)
{
    Graph g = makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);

    StepStats s = ex.runStep();
    EXPECT_GT(s.step_time, 0);
    EXPECT_GT(s.compute_time, 0);
    EXPECT_GT(s.mem_time, 0);
    EXPECT_EQ(s.step, 0);
    EXPECT_EQ(ex.now(), s.step_time);
}

TEST(Executor, FastOnlyServesEverythingFromFast)
{
    Graph g = makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    StepStats s = ex.runStep();
    EXPECT_GT(s.bytes_fast, 0u);
    EXPECT_EQ(s.bytes_slow, 0u);
    EXPECT_EQ(s.exposed_migration, 0);
}

TEST(Executor, SlowOnlyIsSlowerThanFastOnly)
{
    Graph g = makeToyGraph();
    auto hm_fast = makeHm();
    auto hm_slow = makeHm();
    auto fast = baselines::makeFastOnly();
    auto slow = baselines::makeSlowOnly();
    Executor ex_fast(g, hm_fast, ExecParams{}, *fast);
    Executor ex_slow(g, hm_slow, ExecParams{}, *slow);

    StepStats sf = ex_fast.runStep();
    StepStats ss = ex_slow.runStep();
    EXPECT_GT(ss.step_time, sf.step_time);
    EXPECT_EQ(ss.bytes_fast, 0u);
    EXPECT_GT(ss.bytes_slow, 0u);
}

TEST(Executor, StepsAreDeterministic)
{
    Graph g = makeToyGraph();
    auto run_once = [&g]() {
        auto hm = makeHm();
        auto policy = baselines::makeSlowOnly();
        Executor ex(g, hm, ExecParams{}, *policy);
        auto stats = ex.run(3);
        return stats;
    };
    auto a = run_once();
    auto b = run_once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].step_time, b[i].step_time);
}

TEST(Executor, SteadyStateStepsHaveEqualTime)
{
    Graph g = makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeSlowOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    auto stats = ex.run(4);
    // Training is repetitive (the paper's core assumption): once
    // steady, every step costs the same.
    EXPECT_EQ(stats[1].step_time, stats[2].step_time);
    EXPECT_EQ(stats[2].step_time, stats[3].step_time);
}

TEST(Executor, OnlyPreallocatedTensorsSurviveTheStep)
{
    ToyGraphIds ids;
    Graph g = makeToyGraph(&ids);
    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    ex.runStep();

    EXPECT_TRUE(ex.isAllocated(ids.input));
    EXPECT_TRUE(ex.isAllocated(ids.w0));
    EXPECT_TRUE(ex.isAllocated(ids.w1));
    EXPECT_FALSE(ex.isAllocated(ids.a0));
    EXPECT_FALSE(ex.isAllocated(ids.temp0));
    EXPECT_FALSE(ex.isAllocated(ids.g1));
}

TEST(Executor, MemoryFootprintReturnsToBaselineAfterStep)
{
    Graph g = makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    ex.runStep();
    std::uint64_t after_one = hm.tier(mem::Tier::Fast).used();
    ex.runStep();
    // Steady state: no leaked pages step over step.
    EXPECT_EQ(hm.tier(mem::Tier::Fast).used(), after_one);
}

TEST(Executor, PeakFastUsageIsTracked)
{
    Graph g = makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    StepStats s = ex.runStep();
    EXPECT_GT(s.peak_fast_used, 0u);
    EXPECT_GE(s.peak_fast_used, hm.tier(mem::Tier::Fast).used());
    EXPECT_EQ(s.peak_fast_used, hm.tier(mem::Tier::Fast).peakUsed());
}

TEST(Executor, PageSharingIsRefCounted)
{
    // Two sub-page preallocated tensors: the packed layout places the
    // second right behind the first, so they share page 0.
    Graph g("share", 1);
    TensorId a = g.addTensor("a", 1000, TensorKind::Weight, true);
    TensorId b = g.addTensor("b", 1000, TensorKind::Weight, true);
    TensorId t = g.addTensor("t", 1000, TensorKind::Temp);
    g.addOp("op", OpType::Other, 0, 1e6,
            { TensorUse{ a, false, 1000, 1.0 },
              TensorUse{ b, false, 1000, 1.0 },
              TensorUse{ t, true, 1000, 1.0 } });
    g.finalize();

    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    ex.runStep();

    const TensorPlacement &pa = ex.placementOf(a);
    const TensorPlacement &pb = ex.placementOf(b);
    ASSERT_EQ(pa.firstPage(), pb.firstPage()); // page-level false sharing
    // a, b share the page; t was freed at the end of the op, and its
    // sub-page allocation also landed on the same page.
    EXPECT_EQ(ex.pageRefCount(pa.firstPage()), 2);
    // Exactly one physical page is mapped for all three tensors.
    EXPECT_EQ(hm.tier(mem::Tier::Fast).used(), mem::kPageSize);
}

TEST(Executor, AccessTrackerCountsAndChargesFaults)
{
    Graph g = makeToyGraph();
    auto hm_plain = makeHm();
    auto hm_prof = makeHm();
    auto p1 = baselines::makeSlowOnly();
    auto p2 = baselines::makeSlowOnly();
    Executor plain(g, hm_plain, ExecParams{}, *p1);
    Executor prof(g, hm_prof, ExecParams{}, *p2);

    mem::AccessTracker tracker;
    prof.setAccessTracker(&tracker);

    StepStats s_plain = plain.runStep();
    StepStats s_prof = prof.runStep();

    EXPECT_GT(tracker.totalFaults(), 0u);
    EXPECT_GT(s_prof.fault_overhead, 0);
    // The profiling step is strictly slower, by exactly the fault cost.
    EXPECT_EQ(s_prof.step_time, s_plain.step_time + s_prof.fault_overhead);
}

TEST(Executor, TraceRecorderSeesTraffic)
{
    Graph g = makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeFastOnly();
    Executor ex(g, hm, ExecParams{}, *policy);
    sim::TraceRecorder trace(100 * kUsec);
    ex.setTraceRecorder(&trace);
    StepStats s = ex.runStep();

    auto fast_bw = trace.bandwidthSeries("fast");
    double total = 0;
    for (double v : fast_bw)
        total += v * toSeconds(trace.bucketWidth());
    EXPECT_NEAR(total, static_cast<double>(s.bytes_fast), 1.0);
}

TEST(Executor, LargerBatchGraphTakesLonger)
{
    // Not strictly an executor property, but a sanity anchor: the toy
    // graph's costs are batch-independent, so instead scale the HM
    // bandwidth down and expect proportionally slower steps.
    Graph g = makeToyGraph();
    auto hm1 = makeHm();
    mem::TierParams fast{ "dram", 64ull << 20, 5e9, 4e9, 80, 80 };
    mem::TierParams slow{ "pmm", 1ull << 30, 6e9, 2e9, 300, 100 };
    auto hm2 = mem::HeterogeneousMemory({ fast, slow }, { { 4e9, 2e9, 2000 } });
    auto pa = baselines::makeFastOnly();
    auto pb = baselines::makeFastOnly();
    Executor a(g, hm1, ExecParams{}, *pa);
    Executor b(g, hm2, ExecParams{}, *pb);
    EXPECT_LT(a.runStep().step_time, b.runStep().step_time);
}

} // namespace
} // namespace sentinel::df
