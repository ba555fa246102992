#include <gtest/gtest.h>

#include "core/interval_planner.hh"
#include "mem/hm.hh"
#include "profile/profiler.hh"
#include "support/test_graphs.hh"

namespace sentinel::core {
namespace {

prof::ProfileResult
profileToy()
{
    df::Graph g = sentinel::testing::makeToyGraph();
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 4ull << 30, 6e9, 2e9, 300, 100 };
    mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
    prof::Profiler p;
    return p.profile(g, hm, df::ExecParams{});
}

PlannerInputs
inputs(const prof::ProfileDatabase &db, std::uint64_t s)
{
    PlannerInputs in;
    in.db = &db;
    in.fast_capacity = s;
    in.promote_bw = 4e9;
    in.fast_read_bw = 50e9;
    in.slow_read_bw = 6e9;
    return in;
}

TEST(IntervalPlanner, ProducesOneCandidatePerMil)
{
    auto r = profileToy();
    IntervalPlanner planner(inputs(r.db, 1ull << 20));
    PlannerResult plan = planner.plan(512 * 1024);
    // Toy graph has 4 layers: candidates for MIL 1..2.
    ASSERT_EQ(plan.candidates.size(), 2u);
    EXPECT_EQ(plan.candidates[0].mil, 1);
    EXPECT_EQ(plan.candidates[1].mil, 2);
}

TEST(IntervalPlanner, RsIsCappedByTheGivenBound)
{
    auto r = profileToy();
    std::uint64_t sl = r.db.shortLivedPeakBytes();
    ASSERT_GT(sl, mem::kPageSize);

    IntervalPlanner planner(inputs(r.db, 64ull << 20));
    PlannerResult uncapped = planner.plan(sl * 2);
    EXPECT_EQ(uncapped.rs_bytes, sl);
    PlannerResult capped = planner.plan(mem::kPageSize);
    EXPECT_EQ(capped.rs_bytes, mem::kPageSize);
}

TEST(IntervalPlanner, GenerousMemoryIsFeasible)
{
    auto r = profileToy();
    IntervalPlanner planner(inputs(r.db, 64ull << 20));
    PlannerResult plan = planner.plan(8ull << 20);
    EXPECT_TRUE(plan.best.feasible);
    EXPECT_EQ(plan.best.est_exposed, 0);
}

TEST(IntervalPlanner, TinyMemoryDegradesGracefully)
{
    auto r = profileToy();
    // One page of fast memory: nothing fits; Eq. 1 cannot hold.
    IntervalPlanner planner(inputs(r.db, mem::kPageSize));
    PlannerResult plan = planner.plan(0);
    EXPECT_FALSE(plan.best.feasible);
    EXPECT_EQ(plan.best.mil, 1); // degraded to per-layer migration
}

TEST(IntervalPlanner, PrefetchBytesExcludeCurrentAndUnbornTensors)
{
    sentinel::testing::ToyGraphIds ids;
    df::Graph g = sentinel::testing::makeToyGraph(&ids);
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 4ull << 30, 6e9, 2e9, 300, 100 };
    mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
    prof::Profiler p;
    auto r = p.profile(g, hm, df::ExecParams{});
    IntervalPlanner planner(inputs(r.db, 64ull << 20));

    // At MIL 2, interval 0 (layers 0-1) prefetching for interval 1
    // (layers 2-3): every candidate is either touched by interval 0
    // already (w0, w1, a0 — resident, nothing to move) or born inside
    // interval 1 (g1) — so the migration estimate is zero.
    EXPECT_EQ(planner.prefetchBytes(2, 0), 0u);

    // At MIL 1, interval 2 (layer 2) prefetches for layer 3: w0 and a0
    // are accessed there but not in layer 2, so exactly their bytes
    // move; g1 (accessed in both 2 and 3) and temps are excluded.
    std::uint64_t expected =
        g.tensor(ids.w0).bytes + g.tensor(ids.a0).bytes;
    EXPECT_EQ(planner.prefetchBytes(1, 2), expected);
}

TEST(IntervalPlanner, WorkingSetGrowsWithMil)
{
    auto r = profileToy();
    IntervalPlanner planner(inputs(r.db, 64ull << 20));
    EXPECT_LE(planner.workingSetBytes(1, 0),
              planner.workingSetBytes(2, 0));
}

TEST(IntervalPlanner, IntervalTimesPartitionTheStep)
{
    auto r = profileToy();
    IntervalPlanner planner(inputs(r.db, 64ull << 20));
    Tick whole = planner.intervalTime(4, 0);
    Tick halves = planner.intervalTime(2, 0) + planner.intervalTime(2, 1);
    EXPECT_EQ(whole, halves);
    EXPECT_GT(whole, 0);
}

TEST(IntervalPlanner, DegradedReservationGivesPerLayerBoundaries)
{
    // S2 regression: rs_bytes >= fast capacity used to make
    // dynamicBoundaries() silently fall back to budgeting against the
    // *full* capacity while plan() treated the budget as zero.  Both
    // now share migrationBudget(): no budget -> per-layer intervals.
    auto r = profileToy();
    PlannerInputs in = inputs(r.db, 1ull << 20);
    IntervalPlanner planner(in);

    EXPECT_EQ(planner.migrationBudget(256 * 1024),
              (1ull << 20) - 256 * 1024);
    EXPECT_EQ(planner.migrationBudget(1ull << 20), 0u);
    EXPECT_EQ(planner.migrationBudget(2ull << 20), 0u);

    std::vector<int> starts = planner.dynamicBoundaries(1ull << 20);
    ASSERT_EQ(starts.size(),
              static_cast<std::size_t>(r.db.numLayers()));
    for (int l = 0; l < r.db.numLayers(); ++l)
        EXPECT_EQ(starts[static_cast<std::size_t>(l)], l);
}

TEST(IntervalPlanner, MissingInputsPanic)
{
    auto r = profileToy();
    PlannerInputs in = inputs(r.db, 0);
    EXPECT_THROW(IntervalPlanner{ in }, std::logic_error);
    in = inputs(r.db, 1 << 20);
    in.promote_bw = 0;
    EXPECT_THROW(IntervalPlanner{ in }, std::logic_error);
    in = inputs(r.db, 1 << 20);
    in.db = nullptr;
    EXPECT_THROW(IntervalPlanner{ in }, std::logic_error);
}

} // namespace
} // namespace sentinel::core
