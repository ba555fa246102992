#include <algorithm>

#include <gtest/gtest.h>

#include "core/migration_plan.hh"
#include "mem/hm.hh"
#include "profile/profiler.hh"
#include "support/test_graphs.hh"

namespace sentinel::core {
namespace {

using sentinel::testing::ToyGraphIds;

struct Fixture {
    ToyGraphIds ids;
    prof::ProfileResult profile;

    Fixture()
        : profile(make())
    {
    }

    prof::ProfileResult
    make()
    {
        df::Graph g = sentinel::testing::makeToyGraph(&ids);
        mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
        mem::TierParams slow{ "pmm", 4ull << 30, 6e9, 2e9, 300, 100 };
        mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
        prof::Profiler p;
        return p.profile(g, hm, df::ExecParams{});
    }
};

bool
contains(const std::vector<df::TensorId> &v, df::TensorId id)
{
    return std::find(v.begin(), v.end(), id) != v.end();
}

TEST(MigrationPlan, Shape)
{
    Fixture f;
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 2);
    EXPECT_EQ(plan.mil, 2);
    EXPECT_EQ(plan.num_intervals, 2);
    EXPECT_EQ(plan.prefetch_at.size(), 2u);
    EXPECT_EQ(plan.demote_at_layer.size(), 4u);
    EXPECT_EQ(plan.intervalOfLayer(0), 0);
    EXPECT_EQ(plan.intervalOfLayer(3), 1);
}

TEST(MigrationPlan, NoShortLivedTensorInAnyList)
{
    Fixture f;
    for (int mil : { 1, 2, 4 }) {
        MigrationPlan plan = buildMigrationPlan(f.profile.db, mil);
        for (const auto &lst : plan.prefetch_at) {
            EXPECT_FALSE(contains(lst, f.ids.temp0));
            EXPECT_FALSE(contains(lst, f.ids.temp1));
        }
        for (const auto &lst : plan.demote_at_layer) {
            EXPECT_FALSE(contains(lst, f.ids.temp0));
            EXPECT_FALSE(contains(lst, f.ids.temp1));
        }
    }
}

TEST(MigrationPlan, PrefetchCoversBackwardNeeds)
{
    Fixture f;
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 2);
    // Interval 0 prefetches for interval 1 (layers 2-3): a0 (read in
    // layer 3), w0, w1 are all needed there.
    const auto &pf = plan.prefetch_at[0];
    EXPECT_TRUE(contains(pf, f.ids.a0));
    EXPECT_TRUE(contains(pf, f.ids.w0));
    EXPECT_TRUE(contains(pf, f.ids.w1));
}

TEST(MigrationPlan, BornInNextIntervalExcluded)
{
    Fixture f;
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 2);
    // g1 is born in layer 2 (interval 1): it cannot be prefetched for
    // interval 1 — it does not exist yet.
    EXPECT_FALSE(contains(plan.prefetch_at[0], f.ids.g1));
}

TEST(MigrationPlan, LastIntervalWrapsToFirst)
{
    Fixture f;
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 2);
    // Interval 1 prefetches for the NEXT STEP's interval 0: the
    // weights used in layers 0/1 qualify (they are preallocated and
    // persist across steps).
    const auto &pf = plan.prefetch_at[1];
    EXPECT_TRUE(contains(pf, f.ids.w0));
    EXPECT_TRUE(contains(pf, f.ids.w1));
    EXPECT_TRUE(contains(pf, f.ids.input));
}

TEST(MigrationPlan, PrefetchSortedByHotnessDescending)
{
    Fixture f;
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 2);
    for (const auto &lst : plan.prefetch_at) {
        for (std::size_t i = 1; i < lst.size(); ++i) {
            EXPECT_GE(f.profile.db.tensor(lst[i - 1]).accesses_per_page,
                      f.profile.db.tensor(lst[i]).accesses_per_page);
        }
    }
}

TEST(MigrationPlan, DemotesOnlyAcrossLongGaps)
{
    Fixture f;
    // MIL 1: a0 is accessed at layers 0, 1, 3.  After layer 1 its next
    // access (3) is beyond interval 2's end -> demote at layer 1.
    // After layer 0 the next access (1) is within the next interval ->
    // keep (it was just prefetched).
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 1);
    EXPECT_TRUE(contains(plan.demote_at_layer[1], f.ids.a0));
    EXPECT_FALSE(contains(plan.demote_at_layer[0], f.ids.a0));
    // Non-preallocated tensors are never demoted at their last access
    // (they are freed).
    EXPECT_FALSE(contains(plan.demote_at_layer[3], f.ids.a0));
}

TEST(MigrationPlan, PreallocatedWrapDemotion)
{
    Fixture f;
    // w1 is accessed at layers 1 and 2 only.  At MIL 1, after layer 2
    // its next access is layer 1 of the NEXT step (i.e. 1 + 4 = 5,
    // beyond layer 2's next interval) -> demoted at layer 2.
    MigrationPlan plan = buildMigrationPlan(f.profile.db, 1);
    EXPECT_TRUE(contains(plan.demote_at_layer[2], f.ids.w1));
    // But with MIL 2 the wrap keeps it: next access 5 vs keep_until
    // (2/2+2)*2 = 6 -> 5 < 6, stays resident.
    MigrationPlan plan2 = buildMigrationPlan(f.profile.db, 2);
    EXPECT_FALSE(contains(plan2.demote_at_layer[2], f.ids.w1));
}

TEST(MigrationPlan, InvalidMilPanics)
{
    Fixture f;
    EXPECT_THROW(buildMigrationPlan(f.profile.db, 0), std::logic_error);
}

} // namespace
} // namespace sentinel::core

namespace sentinel::core {
namespace {

TEST(MigrationPlan, ExplicitBoundaries)
{
    Fixture f;
    MigrationPlan plan = buildMigrationPlan(f.profile.db, { 0, 1, 3 });
    EXPECT_EQ(plan.num_intervals, 3);
    EXPECT_EQ(plan.intervalOfLayer(0), 0);
    EXPECT_EQ(plan.intervalOfLayer(1), 1);
    EXPECT_EQ(plan.intervalOfLayer(2), 1);
    EXPECT_EQ(plan.intervalOfLayer(3), 2);
    EXPECT_TRUE(plan.isIntervalStart(0));
    EXPECT_TRUE(plan.isIntervalStart(1));
    EXPECT_FALSE(plan.isIntervalStart(2));
    EXPECT_TRUE(plan.isIntervalStart(3));
    EXPECT_EQ(plan.intervalEnd(1), 3);
    EXPECT_EQ(plan.intervalEnd(2), 4);
}

TEST(MigrationPlan, FixedMilMatchesExplicitEquivalent)
{
    Fixture f;
    MigrationPlan a = buildMigrationPlan(f.profile.db, 2);
    MigrationPlan b = buildMigrationPlan(f.profile.db, { 0, 2 });
    ASSERT_EQ(a.num_intervals, b.num_intervals);
    for (int k = 0; k < a.num_intervals; ++k)
        EXPECT_EQ(a.prefetch_at[static_cast<std::size_t>(k)],
                  b.prefetch_at[static_cast<std::size_t>(k)]);
    for (int l = 0; l < 4; ++l)
        EXPECT_EQ(a.demote_at_layer[static_cast<std::size_t>(l)],
                  b.demote_at_layer[static_cast<std::size_t>(l)]);
}

TEST(MigrationPlan, BadBoundariesPanic)
{
    Fixture f;
    EXPECT_THROW(buildMigrationPlan(f.profile.db, { 1, 2 }),
                 std::logic_error); // must start at 0
    EXPECT_THROW(buildMigrationPlan(f.profile.db, { 0, 2, 2 }),
                 std::logic_error); // strictly ascending
    EXPECT_THROW(buildMigrationPlan(f.profile.db, { 0, 9 }),
                 std::logic_error); // within the step
}

} // namespace
} // namespace sentinel::core
