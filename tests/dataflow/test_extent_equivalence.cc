/**
 * @file
 * Differential tests for the executor's run-granular access walk.
 *
 * Batching is a performance feature; semantically it must be
 * invisible.  A policy whose batched onRangeAccess() covers whole runs
 * must produce StepStats equal field-for-field to the same policy
 * routed through the one-page adapter (the per-page reference), with
 * and without the profiler's access tracker charging faults, on a
 * graph engineered to hit the awkward cases: multi-page tensors, odd
 * (non-page-multiple) traffic, a page shared by two tensors, and
 * migrations still in flight in the middle of an accessed extent.
 * Stall attribution rides along and must stay tick-exact.
 *
 * The same holds for demand faults: UM and GPU Sentinel resolve a run
 * of faults as one closed-form series, and must match the same
 * policies handed one page per call (tests/support/clipped_policy.hh),
 * which fault page by page, over seeded random graphs and device
 * capacities.  So must the static layouts (slow-only, planned, vDNN),
 * which override neither access hook: the default adapter covers a
 * whole run with one segment once the base onPageAccess() has run.
 */

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/arena.hh"
#include "baselines/planned.hh"
#include "baselines/reference.hh"
#include "baselines/unified_memory.hh"
#include "baselines/vdnn.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "mem/access_tracker.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "support/clipped_policy.hh"
#include "telemetry/attribution.hh"

namespace sentinel::df {
namespace {

constexpr std::uint64_t kPage = mem::kPageSize;

/**
 * Packed slow-first layout that promotes a slice of the big weight
 * tensor at layer 0 and demotes part of it at layer 1 — with the
 * test's migration bandwidth those transfers are still in flight when
 * the ops touch the tensor, so accessed extents straddle in-flight
 * pages, tier changes, and landed pages all at once.
 */
class MigratingTestPolicy : public MemoryPolicy
{
  public:
    MigratingTestPolicy(TensorId weight, bool batched_ranges)
        : weight_(weight), batched_(batched_ranges), arena_(0)
    {
    }

    std::string name() const override { return "migrating-test"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &tensor) override
    {
        return { arena_.allocate(tensor.bytes, 64), mem::Tier::Slow };
    }

    void
    onTensorAllocated(Executor &, TensorId id,
                      const TensorPlacement &pl) override
    {
        placements[id] = pl;
    }

    void
    onTensorFreed(Executor &, TensorId,
                  const TensorPlacement &pl) override
    {
        arena_.free(pl.addr, pl.bytes);
    }

    void
    onLayerBegin(Executor &ex, int layer) override
    {
        if (!ex.isAllocated(weight_))
            return;
        mem::PageId first = ex.placementOf(weight_).firstPage();
        auto migrate = [&](std::initializer_list<std::uint64_t> offs,
                           mem::Tier to) {
            for (std::uint64_t o : offs) {
                const mem::PageRun one[] = { { first + o, 1 } };
                ex.hm().migratePages(one, to, ex.now());
            }
        };
        if (layer == 0)
            migrate({ 2, 3, 4, 7 }, mem::Tier::Fast);
        else if (layer == 1)
            migrate({ 2, 3 }, mem::Tier::Slow);
    }

    void
    onRangeAccess(Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<AccessSegment> &out) override
    {
        if (!batched_) {
            // Exercise the default one-page adapter.
            MemoryPolicy::onRangeAccess(ex, run, is_write, out);
            return;
        }
        AccessSegment seg;
        seg.pages = run.count;
        out.push_back(seg);
    }

    PageAccessResult
    onPageAccess(Executor &ex, mem::PageId, bool) override
    {
        access_ticks.push_back(ex.now());
        return {};
    }

    /** Latest placement of every tensor allocated so far. */
    std::map<TensorId, TensorPlacement> placements;
    /** Clock at each onPageAccess() call (adapter mode only). */
    std::vector<Tick> access_ticks;

  private:
    TensorId weight_;
    bool batched_;
    alloc::VirtualArena arena_;
};

struct TestGraph {
    Graph graph;
    TensorId weight;
    std::uint64_t traffic_per_step = 0;

    TestGraph() : graph("extent", 2), weight(0)
    {
        // A 10-page weight (the migration target), activations with
        // non-page-aligned sizes, and a short-lived temp that shares
        // the activation's last page; every traffic count is chosen so
        // traffic % npages != 0, and the episode counts differ per use
        // so the tracker's per-page counts are not all alike.
        weight = graph.addTensor("w", 10 * kPage, TensorKind::Weight,
                                 true);
        TensorId act = graph.addTensor("a", 5 * kPage + 123,
                                       TensorKind::Activation);
        TensorId tmp =
            graph.addTensor("t", 3 * kPage + 7, TensorKind::Temp);

        auto use = [this](TensorId id, bool is_write,
                          std::uint64_t traffic, double episodes) {
            traffic_per_step += traffic;
            return TensorUse{ id, is_write, traffic, episodes };
        };
        graph.addOp("fwd", OpType::Other, 0, 1e6,
                    { use(weight, false, 7 * kPage + 1237, 1.0),
                      use(act, true, 3 * kPage + 11, 2.0) });
        graph.addOp("bwd", OpType::Other, 1, 1e6,
                    { use(weight, false, 9 * kPage + 13, 3.0),
                      use(act, false, 2 * kPage + 999, 1.0),
                      use(tmp, true, kPage + 1, 2.0) });
        graph.finalize();
    }
};

mem::HeterogeneousMemory
makeHm()
{
    // Fast tier large enough for the promoted slice, migration slow
    // enough (4 GB/s, 2 us startup) that layer-begin transfers are
    // still in flight when the ops run.
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 1ull << 30, 6e9, 2e9, 300, 100 };
    mem::MigrationParams mig{ 4e9, 2e9, 2000 };
    return mem::HeterogeneousMemory({ fast, slow }, { mig });
}

constexpr Tick kFaultCost = mem::AccessTracker::kFaultCost;

struct ComboResult {
    std::vector<StepStats> stats;
    telemetry::AttributionEngine attr;
    std::vector<Tick> access_ticks;
};

/**
 * Run the migrating scenario with attribution attached; @p profiled
 * also attaches an access tracker, so every access to a live page
 * charges a fault and advances the clock mid-extent.
 */
ComboResult
runCombo(bool batched_policy, bool profiled, int steps = 3)
{
    TestGraph tg;
    auto hm = makeHm();
    MigratingTestPolicy policy(tg.weight, batched_policy);
    Executor ex(tg.graph, hm, ExecParams{}, policy);
    mem::AccessTracker tracker;
    if (profiled)
        ex.setAccessTracker(&tracker);
    ComboResult r;
    hm.setAttribution(&r.attr);
    ex.setAttribution(&r.attr);
    r.stats = ex.run(steps);
    r.access_ticks = policy.access_ticks;
    return r;
}

void
expectSameStats(const std::vector<StepStats> &a,
                const std::vector<StepStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "step " << i);
        EXPECT_EQ(a[i].step_time, b[i].step_time);
        EXPECT_EQ(a[i].compute_time, b[i].compute_time);
        EXPECT_EQ(a[i].mem_time, b[i].mem_time);
        EXPECT_EQ(a[i].exposed_migration, b[i].exposed_migration);
        EXPECT_EQ(a[i].fault_overhead, b[i].fault_overhead);
        EXPECT_EQ(a[i].recompute_time, b[i].recompute_time);
        EXPECT_EQ(a[i].policy_time, b[i].policy_time);
        EXPECT_EQ(a[i].bytes_fast, b[i].bytes_fast);
        EXPECT_EQ(a[i].bytes_slow, b[i].bytes_slow);
        EXPECT_EQ(a[i].slow_bytes_by_kind, b[i].slow_bytes_by_kind);
        EXPECT_EQ(a[i].promoted_bytes, b[i].promoted_bytes);
        EXPECT_EQ(a[i].demoted_bytes, b[i].demoted_bytes);
        EXPECT_EQ(a[i].peak_fast_used, b[i].peak_fast_used);
        EXPECT_EQ(a[i].num_stalls, b[i].num_stalls);
    }
}

/** Attribution decomposes every step exactly, faults included. */
void
expectExactAttribution(const ComboResult &r)
{
    EXPECT_TRUE(r.attr.allExact());
    ASSERT_EQ(r.attr.steps().size(), r.stats.size());
    for (std::size_t i = 0; i < r.stats.size(); ++i) {
        const telemetry::AttrBucket &b = r.attr.steps()[i].bucket;
        EXPECT_EQ(b.total(), r.stats[i].step_time) << "step " << i;
        EXPECT_EQ(b.component(telemetry::AttrComponent::Fault),
                  r.stats[i].fault_overhead)
            << "step " << i;
        EXPECT_EQ(b.stall_events, r.stats[i].num_stalls) << "step " << i;
    }
}

/** Overrides neither access hook, like every static layout. */
class StaticTestPolicy : public MemoryPolicy
{
  public:
    std::string name() const override { return "static-test"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &tensor) override
    {
        return { arena_.allocate(tensor.bytes, 64), mem::Tier::Slow };
    }

  private:
    alloc::VirtualArena arena_{ 0 };
};

TEST(ExtentEquivalence, PolicyIgnoringAccessesGetsWholeRunSegments)
{
    TestGraph tg;
    auto hm = makeHm();
    StaticTestPolicy ignoring;
    MigratingTestPolicy listening(tg.weight, /*batched_ranges=*/false);
    Executor ex(tg.graph, hm, ExecParams{}, ignoring);
    for (const mem::PageRun run : { mem::PageRun{ 3, 7 },
                                    mem::PageRun{ 40, 1 },
                                    mem::PageRun{ 0, 12 } }) {
        SCOPED_TRACE(::testing::Message() << run.count << " pages at "
                                          << run.first);
        // From the first call on: one segment, no charge, no tier.
        std::vector<AccessSegment> out;
        ignoring.onRangeAccess(ex, run, false, out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].pages, run.count);
        EXPECT_EQ(out[0].extra, 0);
        EXPECT_EQ(out[0].stall_events, 0u);
        EXPECT_FALSE(out[0].effective.has_value());
        // A policy that overrides onPageAccess() still sees every page.
        out.clear();
        listening.onRangeAccess(ex, run, false, out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].pages, 1u);
    }
    EXPECT_EQ(listening.access_ticks.size(), 3u);
}

TEST(ExtentEquivalence, MigrationActuallyOverlapsAccesses)
{
    // Guard: the scenario must exercise what it claims to — stalls
    // from in-flight pages, traffic from both tiers, and (profiled)
    // fault charges.
    auto r = runCombo(true, true);
    bool stalled = false, fast = false, slow = false, faulted = false;
    for (const auto &s : r.stats) {
        stalled |= s.num_stalls > 0;
        fast |= s.bytes_fast > 0;
        slow |= s.bytes_slow > 0;
        faulted |= s.fault_overhead > 0;
    }
    EXPECT_TRUE(stalled);
    EXPECT_TRUE(fast);
    EXPECT_TRUE(slow);
    EXPECT_TRUE(faulted);
}

TEST(ExtentEquivalence, BatchedPolicyHookMatchesPerPageAdapter)
{
    auto ref = runCombo(false, false);
    auto batched = runCombo(true, false);
    expectSameStats(batched.stats, ref.stats);
    expectExactAttribution(ref);
    expectExactAttribution(batched);
}

TEST(ExtentEquivalence, ProfiledBatchedHookMatchesPerPageAdapter)
{
    // Faults advance the clock between runs, which moves arrivals
    // relative to later accesses: the batched walk must still replay
    // the per-page clock sequence exactly.
    auto ref = runCombo(false, true);
    auto batched = runCombo(true, true);
    expectSameStats(batched.stats, ref.stats);
    expectExactAttribution(ref);
    expectExactAttribution(batched);
    ASSERT_EQ(batched.attr.byLayer().size(), ref.attr.byLayer().size());
    for (const auto &[layer, bucket] : ref.attr.byLayer())
        EXPECT_EQ(batched.attr.byLayer().at(layer).ticks, bucket.ticks)
            << "layer " << layer;
    // The reference itself is per-page: the adapter sees one page per
    // call, and every accessed page is live (so tracked), so the clock
    // must have moved by at least one fault between consecutive calls.
    ASSERT_FALSE(ref.access_ticks.empty());
    EXPECT_TRUE(batched.access_ticks.empty());
    for (std::size_t i = 1; i < ref.access_ticks.size(); ++i)
        ASSERT_GE(ref.access_ticks[i] - ref.access_ticks[i - 1], kFaultCost)
            << "access " << i;
}

TEST(ExtentEquivalence, TrackerCountsMatchClosedForm)
{
    // Each page's count is the sum of episodes_per_page over the uses
    // whose tensor covers the page, per step — whatever tier or flight
    // state the page is in when the run is resolved.
    for (bool batched : { false, true }) {
        SCOPED_TRACE(batched ? "batched" : "adapter");
        TestGraph tg;
        auto hm = makeHm();
        MigratingTestPolicy policy(tg.weight, batched);
        Executor ex(tg.graph, hm, ExecParams{}, policy);
        mem::AccessTracker tracker;
        ex.setAccessTracker(&tracker);
        // Per page: {reads, writes}.
        std::map<mem::PageId, std::pair<std::uint64_t, std::uint64_t>> want;
        Tick fault_overhead = 0;
        for (int step = 0; step < 3; ++step) {
            fault_overhead += ex.runStep().fault_overhead;
            for (const Operation &op : tg.graph.ops()) {
                for (const TensorUse &use : op.uses) {
                    const TensorPlacement &pl =
                        policy.placements.at(use.tensor);
                    auto n = static_cast<std::uint64_t>(
                        use.episodes_per_page);
                    for (mem::PageId p = pl.firstPage(); p < pl.endPage();
                         ++p)
                        (use.is_write ? want[p].second : want[p].first) +=
                            n;
                }
            }
        }
        // Guard: the temp (tensor 2) shares the activation's (tensor 1)
        // last page, so that page's count sums uses of both.
        EXPECT_EQ(policy.placements.at(1).endPage() - 1,
                  policy.placements.at(2).firstPage());
        std::map<mem::PageId, std::pair<std::uint64_t, std::uint64_t>> got;
        for (const mem::PageRunCounts &run : tracker.pageCounts())
            for (mem::PageId p = run.first; p < run.endPage(); ++p)
                got[p] = { run.reads, run.writes };
        EXPECT_EQ(got, want);
        std::uint64_t total = 0;
        for (const auto &[page, counts] : want)
            total += counts.first + counts.second;
        EXPECT_EQ(tracker.totalFaults(), total);
        EXPECT_EQ(fault_overhead, static_cast<Tick>(total) * kFaultCost);
    }
}

TEST(ExtentEquivalence, TrafficBytesAreExact)
{
    // The per-page split of use.traffic_bytes must not lose the
    // division remainder: fast + slow traffic equals the graph's
    // traffic exactly, batched or not.
    TestGraph tg;
    for (bool batched : { false, true })
        for (const auto &s : runCombo(batched, false).stats)
            EXPECT_EQ(s.bytes_fast + s.bytes_slow, tg.traffic_per_step);
}

/** One GPU cell run for the fault-series differential. */
struct FaultRun {
    std::vector<StepStats> stats;
    mem::HmStats hm_stats;
    /** Per link and direction: transfers, busy time, busy-until. */
    std::vector<std::uint64_t> transfers;
    std::vector<Tick> busy_time, busy_until;
    std::uint64_t demand_faults = 0;
    std::uint64_t multi_fault_segments = 0;
    telemetry::AttributionEngine attr;
};

/**
 * Six steps of @p policy ("um" or "sentinel") on the GPU platform with
 * a device of @p fraction of the graph's peak, its accesses handed
 * over at most @p max_pages at a time.
 */
FaultRun
runFaults(const Graph &g, double fraction, const std::string &policy,
          std::uint64_t max_pages)
{
    const std::uint64_t fast = mem::roundUpToPages(static_cast<std::uint64_t>(
        static_cast<double>(g.peakMemoryBytes()) * fraction));
    core::RuntimeConfig rc =
        harness::platformConfig(harness::Platform::Gpu, fast);
    std::optional<prof::ProfileResult> profile;
    std::unique_ptr<MemoryPolicy> inner;
    baselines::UnifiedMemoryPolicy *um = nullptr;
    if (policy == "um") {
        inner = std::make_unique<baselines::UnifiedMemoryPolicy>();
        um = static_cast<baselines::UnifiedMemoryPolicy *>(inner.get());
    } else {
        mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
        profile = prof::Profiler(rc.profiler).profile(g, prof_hm, rc.exec);
        core::SentinelOptions opts;
        opts.gpu_mode = true;
        inner = std::make_unique<core::SentinelPolicy>(profile->db, opts);
    }
    testing::ClippedPolicy clipped(*inner, max_pages);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    Executor ex(g, hm, rc.exec, clipped);
    FaultRun r;
    hm.setAttribution(&r.attr);
    ex.setAttribution(&r.attr);
    r.stats = ex.run(6);
    r.hm_stats = hm.stats();
    for (unsigned l = 0; l < hm.numLinks(); ++l) {
        for (bool up : { true, false }) {
            const sim::BandwidthChannel &ch = hm.linkChannel(l, up);
            r.transfers.push_back(ch.numTransfers());
            r.busy_time.push_back(ch.busyTime());
            r.busy_until.push_back(ch.busyUntil());
        }
    }
    r.demand_faults = um ? um->demandFaults() : 0;
    r.multi_fault_segments = clipped.multi_fault_segments;
    return r;
}

/**
 * The batched policy against itself handed one page per call, over
 * seeded synthetic graphs and device capacities; @return the number
 * of multi-fault segments the batched runs resolved.
 */
std::uint64_t
expectFaultSeriesMatchOnePageFaults(const std::string &policy)
{
    std::uint64_t multi = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (double fraction : { 0.15, 0.3, 0.5 }) {
            SCOPED_TRACE(::testing::Message()
                         << policy << " synthetic:" << seed << " at "
                         << fraction << " of peak");
            Graph g = models::makeModel(
                "synthetic:" + std::to_string(seed), 8);
            FaultRun ref = runFaults(g, fraction, policy, 1);
            FaultRun got = runFaults(g, fraction, policy,
                                     testing::ClippedPolicy::kUnclipped);
            EXPECT_EQ(ref.multi_fault_segments, 0u);
            multi += got.multi_fault_segments;
            expectSameStats(got.stats, ref.stats);
            EXPECT_EQ(got.hm_stats.promoted_pages, ref.hm_stats.promoted_pages);
            EXPECT_EQ(got.hm_stats.promoted_bytes, ref.hm_stats.promoted_bytes);
            EXPECT_EQ(got.hm_stats.demoted_pages, ref.hm_stats.demoted_pages);
            EXPECT_EQ(got.hm_stats.demoted_bytes, ref.hm_stats.demoted_bytes);
            EXPECT_EQ(got.transfers, ref.transfers);
            EXPECT_EQ(got.busy_time, ref.busy_time);
            EXPECT_EQ(got.busy_until, ref.busy_until);
            EXPECT_EQ(got.demand_faults, ref.demand_faults);
            EXPECT_TRUE(got.attr.allExact());
            const telemetry::AttrBucket a = got.attr.totals();
            const telemetry::AttrBucket b = ref.attr.totals();
            EXPECT_EQ(a.ticks, b.ticks);
            EXPECT_EQ(a.stall_events, b.stall_events);
            EXPECT_EQ(got.attr.byLayer().size(), ref.attr.byLayer().size());
            for (const auto &[layer, bucket] : ref.attr.byLayer()) {
                if (!got.attr.byLayer().count(layer)) {
                    ADD_FAILURE() << "layer " << layer << " not attributed";
                    continue;
                }
                EXPECT_EQ(got.attr.byLayer().at(layer).ticks, bucket.ticks)
                    << "layer " << layer;
                EXPECT_EQ(got.attr.byLayer().at(layer).stall_events,
                          bucket.stall_events)
                    << "layer " << layer;
            }
        }
    }
    return multi;
}

/**
 * Six steps of the static layout @p policy ("slow-only", "planned" or
 * "vdnn") on @p platform, with a fast tier of 30% of the graph's peak
 * and its accesses handed over at most @p max_pages at a time.
 */
std::vector<StepStats>
runStatic(const Graph &g, harness::Platform platform,
          const std::string &policy, std::uint64_t max_pages)
{
    const std::uint64_t fast = mem::roundUpToPages(static_cast<std::uint64_t>(
        static_cast<double>(g.peakMemoryBytes()) * 0.3));
    core::RuntimeConfig rc = harness::platformConfig(platform, fast);
    std::unique_ptr<MemoryPolicy> inner;
    if (policy == "vdnn")
        inner = std::make_unique<baselines::VdnnPolicy>();
    else if (policy == "planned")
        inner = baselines::makePlanned();
    else
        inner = baselines::makeSlowOnly();
    testing::ClippedPolicy clipped(*inner, max_pages);
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    Executor ex(g, hm, rc.exec, clipped);
    return ex.run(6);
}

TEST(ExtentEquivalence, StaticLayoutsMatchOnePageAccesses)
{
    const std::pair<const char *, harness::Platform> cells[] = {
        { "slow-only", harness::Platform::Optane },
        { "planned", harness::Platform::Optane },
        { "vdnn", harness::Platform::Gpu },
    };
    for (const auto &[policy, platform] : cells) {
        std::uint64_t promoted = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << policy << " synthetic:" << seed);
            Graph g = models::makeModel(
                "synthetic:" + std::to_string(seed), 8);
            std::vector<StepStats> ref = runStatic(g, platform, policy, 1);
            expectSameStats(runStatic(g, platform, policy,
                                      testing::ClippedPolicy::kUnclipped),
                            ref);
            for (const StepStats &st : ref)
                promoted += st.promoted_bytes;
        }
        // Guard: vDNN's swap-ins put in-flight pages under the walk.
        if (std::string(policy) == "vdnn")
            EXPECT_GT(promoted, 0u);
    }
}

TEST(ExtentEquivalence, UnifiedMemoryFaultSeriesMatchesOnePageFaults)
{
    EXPECT_GT(expectFaultSeriesMatchOnePageFaults("um"), 0u)
        << "no run resolved more than one fault at a time";
}

TEST(ExtentEquivalence, GpuSentinelFaultSeriesMatchesOnePageFaults)
{
    EXPECT_GT(expectFaultSeriesMatchOnePageFaults("sentinel"), 0u)
        << "no run resolved more than one fault at a time";
}

} // namespace
} // namespace sentinel::df
