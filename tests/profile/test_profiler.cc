#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/access_tracker.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "support/test_graphs.hh"

namespace sentinel::prof {
namespace {

using sentinel::testing::ToyGraphIds;
using sentinel::testing::makeToyGraph;

mem::HeterogeneousMemory
makeHm()
{
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 4ull << 30, 6e9, 2e9, 300, 100 };
    return mem::HeterogeneousMemory({ fast, slow }, { { 4e9, 2e9, 2000 } });
}

ProfileResult
profileToy(ToyGraphIds *ids = nullptr)
{
    df::Graph g = makeToyGraph(ids);
    auto hm = makeHm();
    Profiler p;
    return p.profile(g, hm, df::ExecParams{});
}

TEST(Profiler, CountsAreExact)
{
    // The paper's PTE-poisoning method "does not lose profiling
    // accuracy": every counted episode must equal the ground truth
    // derivable from the graph (episodes x pages per use), on the toy
    // graph, every zoo model at its small batch and llm:tiny.  Page-
    // aligned profiling shares no page, so the step also pays exactly
    // one fault per counted access.
    std::vector<std::pair<std::string, int>> cells = { { "toy", 0 } };
    for (const models::ModelSpec &m : models::modelZoo())
        cells.emplace_back(m.name, m.small_batch);
    cells.emplace_back("llm:tiny", models::modelSpec("llm:tiny").small_batch);
    for (const auto &[name, batch] : cells) {
        SCOPED_TRACE(name);
        df::Graph g =
            batch == 0 ? makeToyGraph() : models::makeModel(name, batch);
        mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
        mem::TierParams slow{ "pmm", 64ull << 30, 6e9, 2e9, 300, 100 };
        mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
        ProfileResult r = Profiler().profile(g, hm, df::ExecParams{});

        std::vector<std::uint64_t> expected(g.numTensors(), 0);
        for (const auto &op : g.ops())
            for (const auto &use : op.uses)
                expected[use.tensor] +=
                    g.tensor(use.tensor).pageAlignedBytes() /
                    mem::kPageSize *
                    static_cast<std::uint64_t>(std::max<long long>(
                        1, std::llround(use.episodes_per_page)));
        std::uint64_t total = 0;
        for (df::TensorId id = 0; id < g.numTensors(); ++id) {
            EXPECT_EQ(r.db.tensor(id).total_accesses, expected[id])
                << g.tensor(id).name;
            total += r.db.tensor(id).total_accesses;
        }
        EXPECT_GT(total, 0u);
        EXPECT_EQ(r.profiling_step.fault_overhead,
                  mem::AccessTracker::kFaultCost *
                      static_cast<Tick>(total));
    }
}

TEST(Profiler, LifetimesAndClasses)
{
    ToyGraphIds ids;
    ProfileResult r = profileToy(&ids);
    const TensorProfile &a0 = r.db.tensor(ids.a0);
    EXPECT_EQ(a0.first_layer, 0);
    EXPECT_EQ(a0.last_layer, 3);
    EXPECT_FALSE(a0.short_lived);

    const TensorProfile &t0 = r.db.tensor(ids.temp0);
    EXPECT_TRUE(t0.short_lived);
    EXPECT_FALSE(t0.small); // 8 pages

    const TensorProfile &t1 = r.db.tensor(ids.temp1);
    EXPECT_TRUE(t1.short_lived);
    EXPECT_TRUE(t1.small);

    // Preallocated tensors span the whole step.
    const TensorProfile &w0 = r.db.tensor(ids.w0);
    EXPECT_TRUE(w0.preallocated);
    EXPECT_EQ(w0.first_layer, 0);
    EXPECT_EQ(w0.last_layer, 3);
}

TEST(Profiler, AccessLayersFromRuntimeCoordination)
{
    ToyGraphIds ids;
    ProfileResult r = profileToy(&ids);
    // a0: written layer 0, read layers 1 and 3.
    EXPECT_EQ(r.db.tensor(ids.a0).access_layers,
              (std::vector<int>{ 0, 1, 3 }));
    // w1: layers 1 (fwd) and 2 (bwd + update).
    EXPECT_EQ(r.db.tensor(ids.w1).access_layers,
              (std::vector<int>{ 1, 2 }));
}

TEST(Profiler, HotterTensorsHaveHigherPerPageCounts)
{
    ToyGraphIds ids;
    ProfileResult r = profileToy(&ids);
    // temp1 is touched at 32 episodes/page; a1 is streamed.
    EXPECT_GT(r.db.tensor(ids.temp1).accesses_per_page,
              r.db.tensor(ids.a1).accesses_per_page);
}

TEST(Profiler, ProfilingStepIsSlowerButBounded)
{
    ProfileResult r = profileToy();
    double slowdown = r.profilingSlowdown();
    // Sec. VII-B: the profiling step is several times slower (up to
    // ~5x) because every access faults.
    EXPECT_GT(slowdown, 1.5);
    EXPECT_LT(slowdown, 12.0);
    EXPECT_GT(r.profiling_step.fault_overhead, 0);
}

TEST(Profiler, MemoryOverheadIsSmall)
{
    ProfileResult r = profileToy();
    // Table III: page-aligned profiling costs at most a few percent of
    // peak memory (large tensors dominate).  The toy graph is small,
    // so allow a looser bound than the paper's 2.4%.
    EXPECT_GE(r.memoryOverhead(), 0.0);
    EXPECT_LT(r.memoryOverhead(), 0.35);
    EXPECT_GT(r.page_aligned_peak, 0u);
    EXPECT_GE(r.page_aligned_peak, r.packed_peak);
}

TEST(Profiler, LayerTimesSumToCleanStep)
{
    ProfileResult r = profileToy();
    Tick sum = r.db.layerSpanTime(0, r.db.numLayers());
    Tick clean =
        r.profiling_step.step_time - r.profiling_step.fault_overhead;
    EXPECT_GT(sum, 0);
    EXPECT_LE(sum, clean);
    // Layers cover nearly the whole step (no allocation gaps here).
    EXPECT_GT(static_cast<double>(sum), 0.9 * static_cast<double>(clean));
}

TEST(Profiler, ShortLivedPeakMatchesGraph)
{
    ToyGraphIds ids;
    df::Graph g = makeToyGraph(&ids);
    auto hm = makeHm();
    Profiler p;
    ProfileResult r = p.profile(g, hm, df::ExecParams{});
    EXPECT_GT(r.db.shortLivedPeakBytes(), 0u);
    // Page-aligned short-lived peak is at least the raw one.
    EXPECT_GE(r.db.shortLivedPeakBytes(), g.peakShortLivedBytes());
}

TEST(Profiler, GpuPinnedSyncRunsAtTheProfiledLinkBandwidth)
{
    // The two-copy synchronization moves the preallocated bytes once
    // over link 0 toward the device, at that link's bandwidth: two
    // HMs that differ only there charge different syncs.
    df::Graph g = makeToyGraph();
    ProfilerOptions opts;
    opts.gpu_pinned = true;
    Profiler p(opts);
    mem::TierParams fast{ "hbm", 64ull << 20, 800e9, 750e9, 300, 300 };
    mem::TierParams slow{ "host", 64ull << 30, 11e9, 11e9, 1000, 1000 };
    for (double bw : { 4e9, 16e9 }) {
        SCOPED_TRACE(bw);
        mem::HeterogeneousMemory hm({ fast, slow }, { { bw, 11e9, 10000 } });
        ProfileResult r = p.profile(g, hm, df::ExecParams{});
        EXPECT_GT(r.sync_overhead, 0);
        EXPECT_EQ(r.sync_overhead, transferTime(g.preallocatedBytes(), bw));
    }
}

TEST(Profiler, PageLevelProfileShowsFalseSharing)
{
    // Observation 3: with the packed allocator, page-level counts
    // blend tensors.  At minimum, the page-level view must exist and
    // count fewer distinct "objects" than there are tensors.
    ToyGraphIds ids;
    df::Graph g = makeToyGraph(&ids);
    auto hm1 = makeHm();
    auto hm2 = makeHm();
    Profiler p;
    ProfileResult tensor_level = p.profile(g, hm1, df::ExecParams{});
    auto page_level = p.profilePageLevel(g, hm2, df::ExecParams{});

    EXPECT_FALSE(page_level.empty());
    // Packed pages < page-aligned pages: sharing happened.
    std::uint64_t aligned_pages = 0;
    for (const auto &t : g.tensors())
        aligned_pages += t.pageAlignedBytes() / mem::kPageSize;
    EXPECT_LT(page_level.size(), aligned_pages);
    (void)tensor_level;
}

class ProfilerDeterminism : public ::testing::TestWithParam<int>
{
};

TEST_P(ProfilerDeterminism, RepeatedProfilesAgree)
{
    ToyGraphIds ids;
    df::Graph g = makeToyGraph(&ids, /*batch=*/GetParam());
    auto hm1 = makeHm();
    auto hm2 = makeHm();
    Profiler p;
    ProfileResult a = p.profile(g, hm1, df::ExecParams{});
    ProfileResult b = p.profile(g, hm2, df::ExecParams{});
    for (df::TensorId id = 0; id < g.numTensors(); ++id) {
        EXPECT_EQ(a.db.tensor(id).total_accesses,
                  b.db.tensor(id).total_accesses);
    }
    EXPECT_EQ(a.profiling_step.step_time, b.profiling_step.step_time);
}

INSTANTIATE_TEST_SUITE_P(Batches, ProfilerDeterminism,
                         ::testing::Values(1, 4, 16));

} // namespace
} // namespace sentinel::prof
