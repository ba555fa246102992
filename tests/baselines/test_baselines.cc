#include <gtest/gtest.h>

#include "baselines/autotm.hh"
#include "baselines/capuchin.hh"
#include "baselines/ial.hh"
#include "baselines/memory_mode.hh"
#include "baselines/reference.hh"
#include "baselines/swapadvisor.hh"
#include "baselines/unified_memory.hh"
#include "baselines/vdnn.hh"
#include "core/runtime.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "support/ref_um_lru.hh"
#include "support/test_graphs.hh"

namespace sentinel::baselines {
namespace {

struct Rig {
    df::Graph graph;
    core::RuntimeConfig cfg;
    prof::ProfileResult profile;
    mem::HeterogeneousMemory hm;

    explicit Rig(std::uint64_t fast_bytes,
                 df::Graph g = sentinel::testing::makeToyGraph())
        : graph(std::move(g)),
          cfg(core::RuntimeConfig::optane(fast_bytes)),
          profile(runProfile()), hm(cfg.tierChain(), cfg.linkChain())
    {
    }

    prof::ProfileResult
    runProfile()
    {
        mem::HeterogeneousMemory phm(cfg.tierChain(), cfg.linkChain());
        prof::Profiler p(cfg.profiler);
        return p.profile(graph, phm, cfg.exec);
    }

    df::StepStats
    steady(df::MemoryPolicy &policy, int steps = 6)
    {
        df::Executor ex(graph, hm, cfg.exec, policy);
        return ex.run(steps).back();
    }
};

// ---------------------------------------------------------------- IAL

TEST(Ial, PromotesAnIdleSlowPageOnItsFourthAccess)
{
    // A slow, idle page pays a hint fault on every access; the first
    // kPromoteThreshold - 1 leave it where it is, and the next one
    // promotes it and also pays the in-kernel copy.
    static_assert(IalPolicy::kPromoteThreshold == 4);
    core::RuntimeConfig rc = core::RuntimeConfig::optane(64 * mem::kPageSize);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Graph graph = sentinel::testing::makeToyGraph();
    IalPolicy policy;
    df::Executor ex(graph, hm, rc.exec, policy);
    const mem::PageId page = 1000;
    hm.mapRange(page, 1, mem::Tier::Slow);

    std::vector<df::AccessSegment> out;
    for (int i = 1; i < IalPolicy::kPromoteThreshold; ++i) {
        SCOPED_TRACE(i);
        out.clear();
        policy.onRangeAccess(ex, { page, 1 }, false, out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].pages, 1u);
        EXPECT_EQ(out[0].extra, IalPolicy::kHintFaultCost);
        EXPECT_EQ(out[0].stall_events, 1u);
        EXPECT_FALSE(out[0].effective.has_value());
        EXPECT_EQ(policy.promotionsRequested(), 0u);
        mem::PageRunState rs = hm.residentRange(page, 1, ex.now());
        EXPECT_EQ(rs.tier, mem::Tier::Slow);
        EXPECT_FALSE(rs.in_flight);
    }

    out.clear();
    policy.onRangeAccess(ex, { page, 1 }, false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].pages, 1u);
    EXPECT_EQ(out[0].extra,
              IalPolicy::kHintFaultCost + IalPolicy::kPromoteServiceCost);
    EXPECT_EQ(out[0].stall_events, 1u);
    EXPECT_EQ(out[0].effective, mem::Tier::Fast);
    EXPECT_EQ(policy.promotionsRequested(), 1u);
    EXPECT_TRUE(hm.residentRange(page, 1, ex.now()).in_flight);
    EXPECT_TRUE(hm.flightInfo(page).toward_fast);
}

TEST(Ial, EvictsFifoWhenFastFills)
{
    Rig rig(128 * 1024); // tiny fast tier forces churn
    IalPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(s.demoted_bytes, 0u);
    // FIFO churn: bytes keep moving every steady step.
    EXPECT_GT(s.promoted_bytes + s.demoted_bytes, 0u);
}

TEST(Ial, HintFaultsExposeTime)
{
    Rig rig(128 * 1024);
    IalPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(s.exposed_migration, 0);
}

// --------------------------------------------------------- Memory Mode

TEST(MemoryMode, EverythingServedThroughTheCache)
{
    Rig rig(128 * 1024);
    MemoryModePolicy policy(128 * 1024);
    df::StepStats s = rig.steady(policy);
    // All accesses are effective-fast (served from the DRAM cache)...
    EXPECT_EQ(s.bytes_slow, 0u);
    // ...but misses exposed their fill costs.
    EXPECT_GT(s.exposed_migration, 0);
    EXPECT_GT(policy.cache().misses(), 0u);
    EXPECT_GT(policy.cache().hitRate(), 0.0);
}

TEST(MemoryMode, BiggerCacheMissesLess)
{
    Rig rig1(1ull << 20);
    MemoryModePolicy small_cache(256 * 1024);
    df::StepStats a = rig1.steady(small_cache);

    Rig rig2(1ull << 20);
    MemoryModePolicy big_cache(16ull << 20);
    df::StepStats b = rig2.steady(big_cache);
    EXPECT_LT(b.exposed_migration, a.exposed_migration);
    EXPECT_GT(big_cache.cache().hitRate(),
              small_cache.cache().hitRate());
}

// ------------------------------------------------------------------ UM

TEST(UnifiedMemory, FaultsOnDemand)
{
    Rig rig(128 * 1024);
    UnifiedMemoryPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(policy.demandFaults(), 0u);
    EXPECT_GT(s.exposed_migration, 0);
}

TEST(UnifiedMemory, NoFaultsWhenEverythingFits)
{
    Rig rig(64ull << 20);
    UnifiedMemoryPolicy policy;
    df::StepStats s = rig.steady(policy);
    EXPECT_EQ(policy.demandFaults(), 0u);
    EXPECT_EQ(s.exposed_migration, 0);
    EXPECT_EQ(s.bytes_slow, 0u);
}

TEST(UnifiedMemory, FaultEvictsLeastRecentlyTouchedPagesFirst)
{
    // A device of exactly kDevice pages, filled by one tensor and then
    // re-touched in a shuffled order.  A demand fault on a full device
    // evicts a 32-page batch: it must be the 32 least recently touched
    // pages that are still mapped.
    constexpr std::uint64_t kDevice = 48;
    constexpr std::uint64_t kBatch = 32;
    core::RuntimeConfig rc =
        core::RuntimeConfig::gpu(kDevice * mem::kPageSize);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Graph graph = sentinel::testing::makeToyGraph();
    UnifiedMemoryPolicy policy;
    df::Executor ex(graph, hm, rc.exec, policy);

    df::TensorDesc desc;
    desc.bytes = kDevice * mem::kPageSize;
    df::AllocDecision d = policy.allocate(ex, desc);
    df::TensorPlacement pl{ d.addr, desc.bytes };
    ASSERT_EQ(pl.numPages(), kDevice);
    hm.mapRange(pl.firstPage(), kDevice, d.preferred);
    policy.onTensorAllocated(ex, 0, pl);
    ASSERT_EQ(hm.tier(mem::Tier::Fast).free(), 0u);

    std::vector<mem::PageId> order;
    for (std::uint64_t i = 0; i < kDevice; ++i)
        order.push_back(pl.firstPage() + (i * 29) % kDevice);
    std::vector<df::AccessSegment> out;
    for (mem::PageId p : order)
        policy.onRangeAccess(ex, { p, 1 }, false, out);
    ASSERT_EQ(policy.demandFaults(), 0u);

    // The least recent page dies; a page the policy never saw takes
    // its device slot, so the device is full again.
    const mem::PageId dead = order.front();
    hm.unmapRange(dead, 1, ex.now());
    policy.onRangeUnmapped(ex, { dead, 1 });
    const mem::PageId unmanaged = pl.endPage() + 100;
    hm.mapRange(unmanaged, 1, mem::Tier::Fast);

    const mem::PageId host = pl.endPage() + 200;
    hm.mapRange(host, 1, hm.slowestTier());
    out.clear();
    policy.onRangeAccess(ex, { host, 1 }, false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].pages, 1u);
    EXPECT_GT(out[0].extra, 0);
    EXPECT_EQ(out[0].stall_events, 1u);
    EXPECT_EQ(policy.demandFaults(), 1u);

    EXPECT_FALSE(hm.isMapped(dead));
    EXPECT_FALSE(hm.residentRange(unmanaged, 1, ex.now()).in_flight);
    for (std::size_t i = 1; i < order.size(); ++i) {
        const bool victim = i <= kBatch;
        EXPECT_EQ(hm.residentRange(order[i], 1, ex.now()).in_flight, victim)
            << "page touched " << i << "th";
        if (victim) {
            EXPECT_FALSE(hm.flightInfo(order[i]).toward_fast);
        }
    }
}

TEST(UnifiedMemory, RunEvictionDropsInFlightRunsAndStopsAtTheBatch)
{
    // The LRU's front is a run of device pages touched while still in
    // flight (an earlier eviction's victims, accessed again before
    // they land), then one tensor of idle device pages; together they
    // fill the device.  A 32-page eviction must drop the in-flight
    // run, take the next 32 idle pages as one victim run and leave the
    // 33rd queued: what UM's per-page loop picks on the same queue.
    // (A fault series is no such run: it lands all but its last page
    // before it returns.)
    constexpr std::uint64_t kFlight = 8;
    constexpr std::uint64_t kIdle = 48;
    constexpr std::uint64_t kBatch = 32;
    core::RuntimeConfig rc =
        core::RuntimeConfig::gpu((kFlight + kIdle) * mem::kPageSize);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Graph graph = sentinel::testing::makeToyGraph();
    UnifiedMemoryPolicy policy;
    df::Executor ex(graph, hm, rc.exec, policy);
    sentinel::testing::ListLru ref;

    auto place = [&](std::uint64_t pages) {
        df::TensorDesc desc;
        desc.bytes = pages * mem::kPageSize;
        df::AllocDecision d = policy.allocate(ex, desc);
        df::TensorPlacement pl{ d.addr, desc.bytes };
        EXPECT_EQ(pl.numPages(), pages);
        hm.mapRange(pl.firstPage(), pages, d.preferred);
        policy.onTensorAllocated(ex, 0, pl);
        return mem::PageRun{ pl.firstPage(), pages };
    };
    const mem::PageRun moving = place(kFlight);
    const mem::PageRun idle = place(kIdle);
    ASSERT_EQ(hm.tier(mem::Tier::Fast).free(), 0u);

    const mem::PageRun runs[] = { moving };
    ASSERT_EQ(hm.migratePages(runs, hm.slowestTier(), ex.now()), kFlight);
    std::vector<df::AccessSegment> out;
    policy.onRangeAccess(ex, moving, false, out);
    policy.onRangeAccess(ex, idle, false, out);
    ASSERT_EQ(policy.demandFaults(), 0u);
    ref.touch(moving);
    ref.touch(idle);
    const mem::PageRunState flying =
        hm.residentRange(moving.first, kFlight, ex.now());
    ASSERT_TRUE(flying.in_flight);
    ASSERT_EQ(flying.count, kFlight);
    ASSERT_EQ(hm.tier(mem::Tier::Fast).free(), 0u);

    // A 32-page allocation on the full device evicts one batch.
    df::TensorDesc batch;
    batch.bytes = kBatch * mem::kPageSize;
    const std::vector<mem::PageRun> first = sentinel::testing::refEvictLru(
        hm, ref, batch.bytes, ex.now());
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].first, idle.first);
    EXPECT_EQ(first[0].count, kBatch);
    policy.allocate(ex, batch);
    for (std::uint64_t i = 0; i < kIdle; ++i) {
        const mem::PageId p = idle.first + i;
        const bool victim = i < kBatch;
        ASSERT_EQ(hm.residentRange(p, 1, ex.now()).in_flight, victim)
            << "idle page " << i;
        if (victim) {
            EXPECT_FALSE(hm.flightInfo(p).toward_fast);
        }
    }

    // The device is still full until the victims land, so the next
    // allocation evicts again: it starts at the 33rd idle page.
    ASSERT_EQ(hm.tier(mem::Tier::Fast).free(), 0u);
    const std::vector<mem::PageRun> second =
        sentinel::testing::refEvictLru(hm, ref, batch.bytes, ex.now());
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].first, idle.first + kBatch);
    EXPECT_EQ(second[0].count, kIdle - kBatch);
    policy.allocate(ex, batch);
    const mem::PageRunState rest =
        hm.residentRange(idle.first + kBatch, kIdle - kBatch, ex.now());
    EXPECT_TRUE(rest.in_flight);
    EXPECT_EQ(rest.count, kIdle - kBatch);
    EXPECT_FALSE(hm.flightInfo(idle.first + kBatch).toward_fast);
}

// -------------------------------------------------------------- AutoTM

TEST(AutoTm, PinsHotTensorsWhenMemoryIsAmple)
{
    sentinel::testing::ToyGraphIds ids;
    Rig rig(64ull << 20, sentinel::testing::makeToyGraph(&ids));
    AutoTmPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    // Plenty of fast memory: everything pins, nothing moves, nothing
    // is slow.
    EXPECT_EQ(s.bytes_slow, 0u);
    EXPECT_EQ(policy.placementOf(ids.w0), Placement::PinFast);
}

TEST(AutoTm, SwapsOrSlowsUnderPressure)
{
    sentinel::testing::ToyGraphIds ids;
    Rig rig(128 * 1024, sentinel::testing::makeToyGraph(&ids));
    AutoTmPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    // Under pressure something must give: either migration volume
    // (Swap placements, with synchronous exposure) or slow accesses.
    EXPECT_GT(s.promoted_bytes + s.bytes_slow, 0u);
}

TEST(AutoTm, UseEpisodesGrouping)
{
    EXPECT_EQ(useEpisodes({ 1, 2, 3 }),
              (std::vector<std::pair<int, int>>{ { 1, 3 } }));
    EXPECT_EQ(useEpisodes({ 1, 2, 7, 8 }),
              (std::vector<std::pair<int, int>>{ { 1, 2 }, { 7, 8 } }));
    EXPECT_EQ(useEpisodes({ 5 }),
              (std::vector<std::pair<int, int>>{ { 5, 5 } }));
    EXPECT_EQ(useEpisodes({ 0, 2, 4 }),
              (std::vector<std::pair<int, int>>{
                  { 0, 0 }, { 2, 2 }, { 4, 4 } }));
    EXPECT_TRUE(useEpisodes({}).empty());
}

TEST(AutoTm, TransientLedgerCoversGradsAndTemps)
{
    Rig rig(1ull << 20);
    auto ledger = transientLedger(rig.profile.db);
    ASSERT_EQ(ledger.size(),
              static_cast<std::size_t>(rig.graph.numLayers()));
    std::uint64_t total = 0;
    for (auto b : ledger)
        total += b;
    EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------- vDNN

TEST(Vdnn, SupportsOnlyConvGraphs)
{
    df::Graph resnet = models::makeModel("resnet20", 2);
    EXPECT_TRUE(VdnnPolicy::supports(resnet));
    // Recursive / attention structures have no convolution backbone.
    df::Graph lstm = models::makeModel("lstm", 2);
    EXPECT_FALSE(VdnnPolicy::supports(lstm));
    df::Graph bert = models::makeModel("bert_base", 1);
    EXPECT_FALSE(VdnnPolicy::supports(bert));
}

TEST(Vdnn, OffloadsConvInputs)
{
    df::Graph resnet = models::makeModel("resnet20", 2);
    std::uint64_t fast =
        mem::roundUpToPages(resnet.peakMemoryBytes() / 2);
    Rig rig(fast, models::makeModel("resnet20", 2));
    VdnnPolicy policy;
    df::StepStats s = rig.steady(policy);
    // Conv inputs move out and back.
    EXPECT_GT(s.demoted_bytes, 0u);
    EXPECT_GT(s.promoted_bytes, 0u);
}

// --------------------------------------------------------- SwapAdvisor

TEST(SwapAdvisor, DeterministicForFixedSeed)
{
    Rig rig1(128 * 1024);
    SwapAdvisorPolicy p1(rig1.profile.db);
    df::StepStats a = rig1.steady(p1);

    Rig rig2(128 * 1024);
    SwapAdvisorPolicy p2(rig2.profile.db);
    df::StepStats b = rig2.steady(p2);
    EXPECT_EQ(a.step_time, b.step_time);
    EXPECT_EQ(a.promoted_bytes, b.promoted_bytes);
}

TEST(SwapAdvisor, SearchOverheadCharged)
{
    Rig rig(1ull << 20);
    SwapAdvisorPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    EXPECT_GT(s.policy_time, 0);
    EXPECT_GT(policy.decisionTimeEstimate(), 0);
}

// ------------------------------------------------------------ Capuchin

TEST(Capuchin, RecomputesWhenSwapCannotHide)
{
    // Tight memory + slow link: swaps cannot hide, activations are
    // recomputed instead.
    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 6);
    Rig rig(fast, models::makeModel("resnet20", 8));
    CapuchinPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    if (policy.recomputeCount() > 0) {
        EXPECT_GT(s.recompute_time, 0);
    }
    // Either way the policy must run to steady state.
    EXPECT_GT(s.step_time, 0);
}

TEST(Capuchin, NoRecomputeWhenMemoryIsAmple)
{
    Rig rig(64ull << 20);
    CapuchinPolicy policy(rig.profile.db);
    df::StepStats s = rig.steady(policy);
    EXPECT_EQ(policy.recomputeCount(), 0u);
    EXPECT_EQ(s.recompute_time, 0);
}

// ----------------------------------------------------------- Reference

TEST(Reference, NamesAndTiers)
{
    EXPECT_EQ(makeFastOnly()->name(), "fast-only");
    EXPECT_EQ(makeSlowOnly()->name(), "slow-only");
    EXPECT_EQ(makeFirstTouchNuma()->name(), "first-touch-numa");
}

TEST(Reference, FirstTouchSpillsToSlow)
{
    Rig rig(128 * 1024);
    auto policy = makeFirstTouchNuma();
    df::StepStats s = rig.steady(*policy);
    EXPECT_GT(s.bytes_fast, 0u);
    EXPECT_GT(s.bytes_slow, 0u);
    EXPECT_EQ(s.promoted_bytes, 0u); // never migrates
    EXPECT_EQ(s.demoted_bytes, 0u);
}

} // namespace
} // namespace sentinel::baselines
