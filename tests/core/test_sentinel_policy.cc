#include <set>

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "core/sentinel_policy.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "support/clipped_policy.hh"
#include "support/test_graphs.hh"
#include "telemetry/audit.hh"

namespace sentinel::core {
namespace {

struct Rig {
    df::Graph graph;
    RuntimeConfig cfg;
    prof::ProfileResult profile;
    mem::HeterogeneousMemory hm;

    explicit Rig(std::uint64_t fast_bytes,
                 df::Graph g = sentinel::testing::makeToyGraph())
        : graph(std::move(g)), cfg(RuntimeConfig::optane(fast_bytes)),
          profile(runProfile()), hm(cfg.fast, cfg.slow, cfg.migration)
    {
    }

    prof::ProfileResult
    runProfile()
    {
        mem::HeterogeneousMemory phm(cfg.fast, cfg.slow, cfg.migration);
        prof::Profiler p(cfg.profiler);
        return p.profile(graph, phm, cfg.exec);
    }
};

TEST(SentinelPolicy, RunsAndReachesSteadyState)
{
    Rig rig(2ull << 20);
    SentinelPolicy policy(rig.profile.db);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    auto stats = ex.run(8);
    EXPECT_GT(stats.back().step_time, 0);
    // Repetitive training: late steps settle to a fixed cost.
    EXPECT_EQ(stats[6].step_time, stats[7].step_time);
}

TEST(SentinelPolicy, CoallocationSeparatesClasses)
{
    sentinel::testing::ToyGraphIds ids;
    df::Graph g = sentinel::testing::makeToyGraph(&ids);
    Rig rig(2ull << 20, sentinel::testing::makeToyGraph(&ids));
    SentinelPolicy policy(rig.profile.db);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.runStep();

    // Rule 4 / pool: short-lived tensors never share pages with
    // long-lived ones -> their address regions are disjoint.  We can
    // check the preallocated rule directly: each preallocated tensor
    // page-exclusive.
    std::set<mem::PageId> prealloc_pages;
    for (df::TensorId id : rig.graph.preallocatedTensors()) {
        const df::TensorPlacement &pl = ex.placementOf(id);
        EXPECT_EQ(pl.addr % mem::kPageSize, 0u);
        for (mem::PageId p = pl.firstPage(); p < pl.endPage(); ++p) {
            EXPECT_TRUE(prealloc_pages.insert(p).second)
                << "preallocated tensors share page " << p;
            EXPECT_EQ(ex.pageRefCount(p), 1);
        }
    }
}

TEST(SentinelPolicy, CoallocationOrdersClassMembersByHotness)
{
    // Two long-lived tensors with identical (first,last) spans share a
    // page region; the hotter one gets the lower address.
    df::Graph g("coalloc", 1);
    auto mk = [&](const char *n, double eps) {
        df::TensorId t =
            g.addTensor(n, 1024, df::TensorKind::Activation);
        return std::pair<df::TensorId, double>(t, eps);
    };
    auto [cold, ce] = mk("cold", 1.0);
    auto [hot, he] = mk("hot", 50.0);
    df::TensorId sink = g.addTensor("sink", 1024, df::TensorKind::Temp);
    g.addOp("produce", df::OpType::Other, 0, 1e6,
            { { cold, true, 1024, ce }, { hot, true, 1024, he } });
    g.addOp("consume", df::OpType::Other, 1, 1e6,
            { { cold, false, 1024, ce },
              { hot, false, 1024, he },
              { sink, true, 1024, 1.0 } });
    g.finalize();

    Rig rig(2ull << 20, std::move(g));
    SentinelPolicy policy(rig.profile.db);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.runStep();

    mem::VirtAddr ah = policy.staticAddress(hot);
    mem::VirtAddr ac = policy.staticAddress(cold);
    ASSERT_NE(ah, ~0ull);
    ASSERT_NE(ac, ~0ull);
    // Same (first,last) span -> same class region -> same page; the
    // hotter tensor is laid out first (descending access count,
    // Sec. IV-B rule 2).
    EXPECT_LT(ah, ac);
    EXPECT_EQ(mem::pageOf(ah), mem::pageOf(ac));
}

TEST(SentinelPolicy, PoolHostsShortLivedTensors)
{
    Rig rig(2ull << 20);
    SentinelPolicy policy(rig.profile.db);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(2);
    EXPECT_GT(policy.reservedPoolBytes(), 0u);
    EXPECT_GT(policy.reservedPoolPeak(), 0u);
    EXPECT_LE(policy.reservedPoolPeak(), policy.reservedPoolBytes());
}

TEST(SentinelPolicy, PoolDisabledAblation)
{
    Rig rig(2ull << 20);
    SentinelOptions opts;
    opts.use_reserved_pool = false;
    SentinelPolicy policy(rig.profile.db, opts);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(2);
    EXPECT_EQ(policy.reservedPoolBytes(), 0u);
}

TEST(SentinelPolicy, DirectMigrationAblationUsesMilOne)
{
    Rig rig(2ull << 20);
    SentinelOptions opts;
    opts.use_interval_planner = false;
    SentinelPolicy policy(rig.profile.db, opts);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(1);
    EXPECT_EQ(policy.migrationPlan().mil, 1);
}

TEST(SentinelPolicy, ForcedMilOverridesPlanner)
{
    Rig rig(2ull << 20);
    SentinelOptions opts;
    opts.forced_mil = 2;
    SentinelPolicy policy(rig.profile.db, opts);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(1);
    EXPECT_EQ(policy.migrationPlan().mil, 2);
}

TEST(SentinelPolicy, GpuModeAlwaysStalls)
{
    Rig rig(2ull << 20);
    SentinelOptions opts;
    opts.gpu_mode = true;
    SentinelPolicy policy(rig.profile.db, opts);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(6);
    EXPECT_TRUE(policy.stallModeChosen());
    EXPECT_EQ(policy.trialStepsUsed(), 0); // no test-and-trial on GPU
}

TEST(SentinelPolicy, TrialStepsAreBounded)
{
    // Even under severe memory pressure the test-and-trial machinery
    // uses at most two steps (Sec. IV-D / Table III).
    Rig rig(512 * 1024);
    SentinelPolicy policy(rig.profile.db);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(10);
    EXPECT_LE(policy.trialStepsUsed(), 2);
}

TEST(SentinelRuntime, FacadeTrainsResnet)
{
    df::Graph g = models::makeModel("resnet20", 4);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    Runtime rt(std::move(g), RuntimeConfig::optane(fast));
    const prof::ProfileResult &pr = rt.profileResult();
    EXPECT_GT(pr.profilingSlowdown(), 1.0);
    auto stats = rt.train(4);
    ASSERT_EQ(stats.size(), 4u);
    EXPECT_GT(stats.back().step_time, 0);
    EXPECT_GE(rt.policy().migrationPlan().mil, 1);
    // Continuing training works.
    auto more = rt.train(2);
    EXPECT_EQ(more.size(), 2u);
}

TEST(SentinelRuntime, PresetsAreSane)
{
    auto cpu = RuntimeConfig::optane(1 << 30);
    EXPECT_GT(cpu.fast.read_bw, cpu.slow.read_bw);
    EXPECT_LT(cpu.fast.read_latency, cpu.slow.read_latency);
    EXPECT_FALSE(cpu.sentinel.gpu_mode);

    auto gpu = RuntimeConfig::gpu(1 << 30);
    EXPECT_GT(gpu.fast.read_bw, gpu.slow.read_bw);
    EXPECT_TRUE(gpu.sentinel.gpu_mode);
    EXPECT_TRUE(gpu.profiler.gpu_pinned);
}

TEST(SentinelPolicy, EvictionCandidatesProtectUpcomingPrefetches)
{
    Rig rig(2ull << 20);
    SentinelPolicy policy(rig.profile.db);
    df::Executor ex(rig.graph, rig.hm, rig.cfg.exec, policy);
    ex.run(4);

    std::vector<df::TensorId> cands = policy.evictionCandidates(ex);
    // The oracle is a pure query (DemandEvictionWalksTheCandidateOrder
    // holds evictForSpace() to its order).
    EXPECT_EQ(cands, policy.evictionCandidates(ex));
    std::set<df::TensorId> seen;
    for (df::TensorId id : cands)
        EXPECT_TRUE(seen.insert(id).second) << "duplicate victim " << id;

    // The regression: the wrap-around scan used to walk layers *ahead*
    // and could evict tensors queued or just prefetched for the
    // upcoming interval — exactly the ones about to be used.
    for (df::TensorId id : policy.pendingPrefetch())
        EXPECT_EQ(seen.count(id), 0u) << "queued prefetch " << id;
    const MigrationPlan &plan = policy.migrationPlan();
    int cur = plan.intervalOfLayer(rig.graph.numLayers() - 1);
    for (df::TensorId id :
         plan.prefetch_at[static_cast<std::size_t>(cur)])
        EXPECT_EQ(seen.count(id), 0u) << "just-prefetched " << id;
}

/**
 * Forwards to a GPU Sentinel policy and, around each hook that may
 * demand-evict, checks the victims evictForSpace() picked (its
 * kEvictForSpace audit records) against the oracle: evictionCandidates()
 * taken just before, walked in order over the device-resident idle
 * pages each candidate held then, until enough is reclaimed.
 */
class EvictionOrderProbe : public sentinel::testing::ClippedPolicy
{
  public:
    EvictionOrderProbe(SentinelPolicy &inner, telemetry::AuditLog &audit)
        : ClippedPolicy(inner, kUnclipped), inner_(inner), audit_(audit)
    {
    }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        const Snapshot before = snapshot(ex);
        df::AllocDecision d = ClippedPolicy::allocate(ex, tensor);
        check(before, mem::roundUpToPages(tensor.bytes));
        return d;
    }

    void
    onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<df::AccessSegment> &out) override
    {
        const Snapshot before = snapshot(ex);
        ClippedPolicy::onRangeAccess(ex, run, is_write, out);
        check(before, 64 * mem::kPageSize);
    }

    std::uint64_t evicting_calls = 0;
    std::uint64_t multi_victim_calls = 0;

  private:
    struct Snapshot {
        std::vector<df::TensorId> cands;
        /** Per candidate: its idle device-resident runs. */
        std::vector<std::vector<mem::PageRun>> idle;
        std::size_t first_record = 0;
    };

    Snapshot
    snapshot(df::Executor &ex)
    {
        Snapshot s{ inner_.evictionCandidates(ex), {}, audit_.size() };
        for (df::TensorId id : s.cands) {
            const df::TensorPlacement &pl = ex.placementOf(id);
            std::vector<mem::PageRun> &runs = s.idle.emplace_back();
            for (mem::PageId p = pl.firstPage(); p < pl.endPage();) {
                const mem::PageRunState rs =
                    ex.hm().residentRange(p, pl.endPage() - p, ex.now());
                if (rs.tier == mem::Tier::Fast && !rs.in_flight)
                    runs.push_back(mem::PageRun{ p, rs.count });
                p += rs.count;
            }
        }
        return s;
    }

    void
    check(const Snapshot &s, std::uint64_t needed)
    {
        using Victim = std::pair<std::uint32_t, std::uint64_t>;
        std::vector<Victim> got;
        for (std::size_t i = s.first_record; i < audit_.size(); ++i) {
            const telemetry::AuditRecord &r = audit_.records()[i];
            if (r.reason == telemetry::AuditReason::kEvictForSpace)
                got.emplace_back(r.tensor, r.bytes);
        }
        if (got.empty())
            return; // no eviction in this call
        // The oracle's walk: a page shared with an earlier victim has
        // already left.
        std::vector<Victim> want;
        std::set<mem::PageId> moved;
        std::uint64_t reclaimed = 0;
        for (std::size_t c = 0; c < s.cands.size() && reclaimed < needed;
             ++c) {
            std::uint64_t pages = 0;
            for (const mem::PageRun &run : s.idle[c])
                for (mem::PageId p = run.first; p < run.endPage(); ++p)
                    pages += moved.insert(p).second ? 1 : 0;
            if (pages > 0) {
                want.emplace_back(s.cands[c], pages * mem::kPageSize);
                reclaimed += pages * mem::kPageSize;
            }
        }
        EXPECT_EQ(got, want);
        ++evicting_calls;
        multi_victim_calls += got.size() > 1;
    }

    SentinelPolicy &inner_;
    telemetry::AuditLog &audit_;
};

TEST(SentinelPolicy, DemandEvictionWalksTheCandidateOrder)
{
    // dcgan b52 on a 75 MiB device: allocations and demand faults on a
    // full device evict every step, often several victims per call.
    df::Graph g = models::makeModel("dcgan", 52);
    RuntimeConfig rc =
        harness::platformConfig(harness::Platform::Gpu, 75ull << 20);
    mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
    prof::ProfileResult profile =
        prof::Profiler(rc.profiler).profile(g, prof_hm, rc.exec);
    SentinelOptions opts;
    opts.gpu_mode = true;
    SentinelPolicy policy(profile.db, opts);
    telemetry::AuditLog audit;
    policy.setAudit(&audit);
    EvictionOrderProbe probe(policy, audit);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Executor ex(g, hm, rc.exec, probe);
    ex.run(4);
    EXPECT_EQ(audit.dropped(), 0u);
    EXPECT_GT(probe.evicting_calls, 0u);
    EXPECT_GT(probe.multi_victim_calls, 0u);
}

} // namespace
} // namespace sentinel::core
