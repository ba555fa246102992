/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate itself:
 * the page table, migration engine, allocator, profiler, executor, and
 * the steady steps of Sentinel and of the UM baseline.
 *
 * These are engineering benchmarks (how fast is the reproduction), not
 * paper results — they keep the simulator's own costs visible so the
 * table/figure benches stay quick to iterate on.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "alloc/arena.hh"
#include "baselines/page_queues.hh"
#include "baselines/reference.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "harness/cell.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "telemetry/session.hh"

using namespace sentinel;

namespace {

mem::HeterogeneousMemory
makeHm(std::uint64_t fast_bytes)
{
    mem::TierParams fast{ "dram", fast_bytes, 76e9, 50e9, 85, 90 };
    mem::TierParams slow{ "pmm", 64ull << 30, 30e9, 10e9, 300, 120 };
    return mem::HeterogeneousMemory({ fast, slow }, { { 8e9, 6e9, 2000 } });
}

void
BM_ArenaAllocFree(benchmark::State &state)
{
    alloc::VirtualArena arena(0);
    for (auto _ : state) {
        auto a = arena.allocate(1024, 64);
        auto b = arena.allocate(64 * 1024, 64);
        arena.free(a, 1024);
        arena.free(b, 64 * 1024);
    }
}
BENCHMARK(BM_ArenaAllocFree);

void
BM_PageMapUnmap(benchmark::State &state)
{
    auto hm = makeHm(1ull << 30);
    mem::PageId next = 0;
    for (auto _ : state) {
        hm.mapRange(next, 1, mem::Tier::Fast);
        hm.unmapRange(next, 1, 0);
        ++next;
    }
}
BENCHMARK(BM_PageMapUnmap);

/** Three tiers (HBM <- DRAM <- PMM): a fast<->slow move is two legs,
 *  each on its own link's channel. */
mem::HeterogeneousMemory
makeHm3(std::uint64_t fast_bytes)
{
    mem::TierParams fast{ "hbm", fast_bytes, 200e9, 200e9, 60, 60 };
    mem::TierParams mid{ "dram", fast_bytes, 76e9, 50e9, 85, 90 };
    mem::TierParams slow{ "pmm", 64ull << 30, 30e9, 10e9, 300, 120 };
    return mem::HeterogeneousMemory(
        { fast, mid, slow }, { { 16e9, 12e9, 2000 }, { 8e9, 6e9, 2000 } });
}

// One tensor-sized run promoted and demoted per iteration; arg 0 is
// the run length in pages, arg 1 selects the two-leg 3-tier chain.
void
BM_MigrateBatch(benchmark::State &state)
{
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    auto hm = state.range(1) ? makeHm3(4ull << 30) : makeHm(4ull << 30);
    hm.mapRange(0, n, hm.slowestTier());
    const mem::PageRun runs[] = { { 0, n } };
    Tick now = 0;
    for (auto _ : state) {
        hm.migratePages(runs, mem::Tier::Fast, now);
        now += kSec;
        hm.commitUpTo(now);
        hm.migratePages(runs, hm.slowestTier(), now);
        now += kSec;
        hm.commitUpTo(now);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_MigrateBatch)->ArgsProduct({ { 1, 64, 1024, 65536 }, { 0, 1 } });

// The page table's slow commit: a 16384-page run loses every 7th page
// to a free-and-remap while in flight, so its commit must check each
// page's record id instead of filling the run.
void
BM_MigrateFreedMidFlight(benchmark::State &state)
{
    mem::PageTable pt;
    const std::uint64_t npages = 16384;
    pt.mapRange(0, npages, mem::Tier::Slow);
    mem::Tier at = mem::Tier::Slow;
    for (auto _ : state) {
        const mem::Tier to =
            at == mem::Tier::Slow ? mem::Tier::Fast : mem::Tier::Slow;
        const mem::PageTable::FlightId id =
            pt.beginMigrationRun(0, npages, to, 0, 1);
        for (mem::PageId p = 0; p < npages; p += 7) {
            pt.unmapRange(p, 1);
            pt.mapRange(p, 1, to);
        }
        benchmark::DoNotOptimize(pt.commitMigrationRun(id, npages));
        at = to;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(npages));
}
BENCHMARK(BM_MigrateFreedMidFlight);

// Raw page-table throughput on the extent hot path: bulk-map and
// bulk-unmap a 64 MB (16384-page) extent per iteration.
void
BM_PageTableMapUnmap(benchmark::State &state)
{
    mem::PageTable pt;
    const std::uint64_t npages = 16384;
    for (auto _ : state) {
        pt.mapRange(0, npages, mem::Tier::Fast);
        pt.unmapRange(0, npages);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * npages));
}
BENCHMARK(BM_PageTableMapUnmap);

// The page table as UM's one-page evictions leave it: every fourth
// page of a 1,400-page region is in the other tier, so the table holds
// about 700 stretches.  Each iteration reads one page's state, then
// migrates it alone to the other tier and back, committing each move:
// a split into three stretches and a merge back, twice.
void
BM_PageTableFragmented(benchmark::State &state)
{
    mem::PageTable pt;
    const std::uint64_t npages = 1400;
    pt.mapRange(0, npages, mem::Tier::Slow);
    for (mem::PageId p = 0; p < npages; p += 4)
        pt.commitMigrationRun(
            pt.beginMigrationRun(p, 1, mem::Tier::Fast, 0, 0), 1);
    mem::PageId p = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.runState(p, 1));
        for (mem::Tier to : { mem::Tier::Fast, mem::Tier::Slow })
            benchmark::DoNotOptimize(pt.commitMigrationRun(
                pt.beginMigrationRun(p, 1, to, 0, 0), 1));
        p = (p + 4 * 97) % npages; // a middle page of another slow run
    }
    state.counters["stretches"] =
        static_cast<double>(pt.numStretches());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageTableFragmented);

// The page table under UM's mix, without a simulator around it: each
// iteration reads one page's state at the access walk's locus (a
// 1,000-page region with every fourth page in the other tier), begins a
// 32-page eviction at a second locus, and lands the flight begun eight
// iterations before at a third, half and then the rest.  The eviction
// region comes first in page order, so an edit there sits before the
// fragmented region's 500 stretches; the table holds 500 to 600.
void
BM_PageTableUmChurn(benchmark::State &state)
{
    mem::PageTable pt;
    constexpr std::uint64_t kRuns = 64;
    constexpr std::uint64_t kRunPages = 32;
    constexpr std::uint64_t kLag = 8;
    constexpr mem::PageId kAccess = kRuns * kRunPages;
    constexpr std::uint64_t kAccessPages = 1000;
    mem::Tier tier[kRuns];
    for (std::uint64_t r = 0; r < kRuns; ++r) {
        tier[r] = r % 2 ? mem::Tier::Fast : mem::Tier::Slow;
        pt.mapRange(r * kRunPages, kRunPages, tier[r]);
    }
    pt.mapRange(kAccess, kAccessPages, mem::Tier::Slow);
    for (mem::PageId p = kAccess; p < kAccess + kAccessPages; p += 4)
        pt.commitMigrationRun(
            pt.beginMigrationRun(p, 1, mem::Tier::Fast, 0, 0), 1);
    mem::PageTable::FlightId ids[kRuns];
    std::uint64_t it = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.runState(kAccess + it % kAccessPages, 1));
        const std::uint64_t r = it % kRuns;
        tier[r] = tier[r] == mem::Tier::Slow ? mem::Tier::Fast
                                             : mem::Tier::Slow;
        ids[r] = pt.beginMigrationRun(r * kRunPages, kRunPages, tier[r], 0, 1);
        if (it >= kLag) {
            const mem::PageTable::FlightId old = ids[(it - kLag) % kRuns];
            pt.commitMigrationRun(old, kRunPages / 2);
            pt.commitMigrationRun(old, kRunPages / 2);
        }
        ++it;
    }
    state.counters["stretches"] =
        static_cast<double>(pt.numStretches());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageTableUmChurn);

// UM's LRU without a simulator around it.  A GPU resnet200 step under
// UM makes about 29,000 touches of 44 pages on average, 9,600
// front()/popFront() pairs and 3,200 eraseRange() calls.  Of the
// touches, 45% re-touch a whole record exactly, 21% start on a page
// that is not queued, 20% at a record's first page and 13% inside a
// record.  One step's worth of calls is drawn once over 700 tensor
// runs laid across a directory chunk seam, against the LRU itself so
// that a touch from an unqueued page finds one; the draw lands at 45%,
// 26%, 18% and 11% with 45 pages per touch.  Each iteration replays
// the calls on the state the last one left.
void
BM_RunLruUmChurn(benchmark::State &state)
{
    constexpr mem::PageId kBase = 3 * (1ull << 16) - 20000;
    constexpr std::uint64_t kOps = 41800;
    constexpr std::uint64_t kEvictPages = 32;
    enum class Kind : std::uint8_t { Touch, Pop, Erase };
    struct Op {
        Kind kind;
        mem::PageRun run;
    };
    std::mt19937_64 rng(7);
    std::vector<mem::PageRun> tensors;
    mem::PageId end = kBase;
    for (int t = 0; t < 700; ++t) {
        tensors.push_back({ end, 1 + rng() % 110 });
        end = tensors.back().endPage() + rng() % 8;
    }
    baselines::RunLru lru;
    std::vector<bool> queued(end - kBase);
    auto mark = [&](mem::PageRun run, bool q) {
        for (mem::PageId p = run.first; p < run.endPage(); ++p)
            queued[p - kBase] = q;
    };
    // A run of tensor @p t: whole, from its first unqueued page, from
    // its first page, or from inside it.
    auto touchRun = [&](const mem::PageRun &t,
                        std::uint64_t r) -> mem::PageRun {
        if (r < 58 || t.count == 1)
            return t;
        if (r < 74) {
            for (mem::PageId p = t.first; p < t.endPage(); ++p)
                if (!queued[p - kBase])
                    return { p, t.endPage() - p };
            return t;
        }
        if (r < 84)
            return { t.first, 1 + rng() % t.count };
        const std::uint64_t off = 1 + rng() % (t.count - 1);
        return { t.first + off, 1 + rng() % (t.count - off) };
    };
    std::vector<Op> ops;
    std::uint64_t touched_pages = 0;
    std::uint64_t touches = 0;
    while (ops.size() < kOps) {
        const std::uint64_t r = rng() % (783 + 258 + 86);
        const mem::PageRun &t = tensors[rng() % tensors.size()];
        if (r < 783) {
            const mem::PageRun run = touchRun(t, rng() % 100);
            lru.touch(run);
            mark(run, true);
            ops.push_back({ Kind::Touch, run });
            touched_pages += run.count;
            ++touches;
        } else if (r < 783 + 258) {
            if (lru.empty())
                continue;
            const mem::PageRun run = lru.front(kEvictPages);
            lru.popFront(run.count);
            mark(run, false);
            ops.push_back({ Kind::Pop, {} });
        } else {
            lru.eraseRange(t);
            mark(t, false);
            ops.push_back({ Kind::Erase, t });
        }
    }
    for (auto _ : state) {
        for (const Op &op : ops) {
            switch (op.kind) {
              case Kind::Touch:
                lru.touch(op.run);
                break;
              case Kind::Pop:
                if (!lru.empty()) {
                    const mem::PageRun run = lru.front(kEvictPages);
                    benchmark::DoNotOptimize(run);
                    lru.popFront(run.count);
                }
                break;
              case Kind::Erase:
                lru.eraseRange(op.run);
                break;
            }
        }
        benchmark::ClobberMemory();
    }
    state.counters["pages_per_touch"] =
        static_cast<double>(touched_pages) / static_cast<double>(touches);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * ops.size()));
}
BENCHMARK(BM_RunLruUmChurn);

void
BM_GraphBuildResnet32(benchmark::State &state)
{
    for (auto _ : state) {
        df::Graph g = models::makeModel("resnet32", 32);
        benchmark::DoNotOptimize(g.numOps());
    }
}
BENCHMARK(BM_GraphBuildResnet32);

void
BM_ExecutorStepFastOnly(benchmark::State &state)
{
    df::Graph g = models::makeModel("resnet20", 8);
    auto hm = makeHm(2ull << 30);
    auto policy = baselines::makeFastOnly();
    df::Executor ex(g, hm, df::ExecParams{}, *policy);
    ex.runStep();
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.runStep().step_time);
}
BENCHMARK(BM_ExecutorStepFastOnly);

// The extent-granular walk's headline case: ops whose tensors span
// tens of thousands of pages.  One step touches a 64 MB weight and a
// 32 MB activation twice each (~48k page accesses); the range walk
// resolves them as a handful of runs.
void
BM_ExecutorStepLargePages(benchmark::State &state)
{
    df::Graph g("large-pages", 2);
    const std::uint64_t wbytes = 64ull << 20;
    const std::uint64_t abytes = 32ull << 20;
    df::TensorId w =
        g.addTensor("w", wbytes, df::TensorKind::Weight, true);
    df::TensorId a =
        g.addTensor("a", abytes, df::TensorKind::Activation);
    g.addOp("fwd", df::OpType::Other, 0, 1e6,
            { df::TensorUse{ w, false, wbytes, 1.0 },
              df::TensorUse{ a, true, abytes, 1.0 } });
    g.addOp("bwd", df::OpType::Other, 1, 1e6,
            { df::TensorUse{ w, false, wbytes, 1.0 },
              df::TensorUse{ a, false, abytes, 1.0 } });
    g.finalize();

    auto hm = makeHm(256ull << 20);
    auto policy = baselines::makeFastOnly();
    df::Executor ex(g, hm, df::ExecParams{}, *policy);
    ex.runStep();
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.runStep().step_time);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(2 * (wbytes + abytes) / mem::kPageSize));
}
BENCHMARK(BM_ExecutorStepLargePages);

// Same step with a telemetry session attached: the delta against
// BM_ExecutorStepFastOnly is the *enabled* tracing cost (events +
// counters).  Disabled telemetry is just the null checks already in
// BM_ExecutorStepFastOnly's path, which is why the acceptance bar is
// "no regression with telemetry off".
void
BM_ExecutorStepTelemetry(benchmark::State &state)
{
    df::Graph g = models::makeModel("resnet20", 8);
    auto hm = makeHm(2ull << 30);
    auto policy = baselines::makeFastOnly();
    telemetry::Session session;
    hm.setTelemetry(&session);
    df::Executor ex(g, hm, df::ExecParams{}, *policy);
    ex.setTelemetry(&session);
    ex.runStep();
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.runStep().step_time);
    state.counters["events"] = static_cast<double>(
        session.events().totalEmitted());
}
BENCHMARK(BM_ExecutorStepTelemetry);

// One profile of @p model at @p batch: the profiling step and the
// page counts folded into tensor profiles.  llm:medium at batch 2 is
// perfbench's ntier3-llm-medium profile, most of that cell's set-up.
void
BM_ProfilingStep(benchmark::State &state, const char *model, int batch)
{
    df::Graph g = models::makeModel(model, batch);
    for (auto _ : state) {
        auto hm = makeHm(2ull << 30);
        prof::Profiler profiler;
        auto r = profiler.profile(g, hm, df::ExecParams{});
        benchmark::DoNotOptimize(r.db.numTensors());
    }
}
BENCHMARK_CAPTURE(BM_ProfilingStep, resnet20, "resnet20", 8);
BENCHMARK_CAPTURE(BM_ProfilingStep, llm_medium, "llm:medium", 2)
    ->Unit(benchmark::kMillisecond);

void
BM_SentinelSteadyStep(benchmark::State &state)
{
    df::Graph g = models::makeModel("resnet20", 8);
    std::uint64_t fast = mem::roundUpToPages(g.peakMemoryBytes() / 5);
    auto prof_hm = makeHm(fast);
    prof::Profiler profiler;
    auto profile = profiler.profile(g, prof_hm, df::ExecParams{});

    auto hm = makeHm(fast);
    core::SentinelPolicy policy(profile.db);
    df::Executor ex(g, hm, df::ExecParams{}, policy);
    ex.run(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.runStep().step_time);
}
BENCHMARK(BM_SentinelSteadyStep);

// The UM baseline's layer: on a device of a fifth of the peak, every
// steady step demand-faults pages in as fault series and evicts LRU
// batches, so the step is dominated by the policy's LRU and eviction.
void
BM_UnifiedMemorySteadyStep(benchmark::State &state)
{
    harness::ExperimentConfig cfg;
    cfg.model = "resnet32";
    cfg.batch = 32;
    cfg.platform = harness::Platform::Gpu;
    harness::Cell cell(cfg, "um");
    df::Executor &ex = cell.executor();
    ex.run(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.runStep().step_time);
}
BENCHMARK(BM_UnifiedMemorySteadyStep);

// Sentinel's staged multi-leg path: llm:medium at batch 2 on a 3-tier
// chain, perfbench's ntier3-llm-medium cell.  Its steady step frees
// hundreds of thousands of pages, a run per tensor.
void
BM_NtierLlmSteadyStep(benchmark::State &state)
{
    harness::ExperimentConfig cfg;
    cfg.model = "llm:medium";
    cfg.batch = 2;
    cfg.tiers = 3;
    harness::Cell cell(cfg, "sentinel");
    df::Executor &ex = cell.executor();
    ex.run(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.runStep().step_time);
}
BENCHMARK(BM_NtierLlmSteadyStep);

} // namespace

BENCHMARK_MAIN();
