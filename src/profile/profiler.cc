#include "profile/profiler.hh"

#include <algorithm>
#include <unordered_map>

#include "alloc/arena.hh"
#include "common/logging.hh"
#include "mem/access_tracker.hh"

namespace sentinel::prof {

namespace {

/**
 * The profiling-phase allocator/policy: page-aligned, never recycles
 * addresses (so a page's counts belong to exactly one tensor), always
 * slow tier, and records per-layer timing.
 */
class ProfilingPolicy : public df::MemoryPolicy
{
  public:
    explicit ProfilingPolicy(ProfileDatabase &db)
        : db_(db), arena_(0)
    {
    }

    std::string name() const override { return "sentinel-profiler"; }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        // One tensor per page: page alignment plus page-rounded size.
        mem::VirtAddr addr = arena_.allocate(tensor.pageAlignedBytes(),
                                             mem::kPageSize);
        return { addr, ex.hm().slowestTier() };
    }

    void
    onTensorAllocated(df::Executor &, df::TensorId id,
                      const df::TensorPlacement &pl) override
    {
        // Runtime-side record: the (de)allocation hook of Sec. III-A.
        placements_[id] = pl;
    }

    void
    onTensorFreed(df::Executor &, df::TensorId,
                  const df::TensorPlacement &) override
    {
        // Deliberately no arena_.free(): address recycling within the
        // profiling step would merge two tensors' page counts.
    }

    void
    onLayerBegin(df::Executor &ex, int) override
    {
        layer_start_ = ex.now();
        fault_at_start_ = ex.currentStats().fault_overhead;
        compute_at_start_ = ex.currentStats().compute_time;
        mem_at_start_ = ex.currentStats().mem_time;
    }

    void
    onLayerEnd(df::Executor &ex, int layer) override
    {
        LayerProfile &lp = db_.mutableLayer(layer);
        Tick fault_delta =
            ex.currentStats().fault_overhead - fault_at_start_;
        lp.duration = (ex.now() - layer_start_) - fault_delta;
        lp.compute = ex.currentStats().compute_time - compute_at_start_;
        lp.mem = ex.currentStats().mem_time - mem_at_start_;
    }

    const std::unordered_map<df::TensorId, df::TensorPlacement> &
    placements() const
    {
        return placements_;
    }

    std::uint64_t footprint() const { return arena_.highWater(); }

  private:
    ProfileDatabase &db_;
    alloc::VirtualArena arena_;
    std::unordered_map<df::TensorId, df::TensorPlacement> placements_;
    Tick layer_start_ = 0;
    Tick fault_at_start_ = 0;
    Tick compute_at_start_ = 0;
    Tick mem_at_start_ = 0;
};

/** Simple packed policy for the page-level profiling run. */
class PackedSlowPolicy : public df::MemoryPolicy
{
  public:
    PackedSlowPolicy() : arena_(0) {}
    std::string name() const override { return "packed-slow"; }

    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        return { arena_.allocate(tensor.bytes, 64),
                 ex.hm().slowestTier() };
    }

    void
    onTensorFreed(df::Executor &, df::TensorId,
                  const df::TensorPlacement &pl) override
    {
        arena_.free(pl.addr, pl.bytes);
    }

  private:
    alloc::VirtualArena arena_;
};

/** Peak live footprint if every tensor were page-aligned/padded. */
std::uint64_t
pageAlignedPeak(const df::Graph &graph)
{
    std::uint64_t live = 0;
    for (df::TensorId id : graph.preallocatedTensors())
        live += graph.tensor(id).pageAlignedBytes();
    std::uint64_t peak = live;
    for (const auto &op : graph.ops()) {
        for (df::TensorId id : graph.tensorsBornAtOp(op.id))
            live += graph.tensor(id).pageAlignedBytes();
        peak = std::max(peak, live);
        for (df::TensorId id : graph.tensorsDyingAtOp(op.id))
            live -= graph.tensor(id).pageAlignedBytes();
    }
    return peak;
}

} // namespace

ProfileResult
Profiler::profile(const df::Graph &graph, mem::HeterogeneousMemory &hm,
                  const df::ExecParams &params)
{
    ProfileResult result{
        ProfileDatabase(graph.name(), graph.numLayers(),
                        graph.numTensors()),
        {}, 0, 0, 0
    };
    ProfileDatabase &db = result.db;

    ProfilingPolicy policy(db);
    df::Executor ex(graph, hm, params, policy);
    mem::AccessTracker tracker;
    ex.setAccessTracker(&tracker);

    result.profiling_step = ex.runStep();
    const std::vector<mem::PageRunCounts> counts = tracker.pageCounts();

    // --- OS + runtime coordination: page counts -> tensor profiles ----
    std::uint64_t sl_live = 0;
    std::uint64_t sl_peak = 0;
    // Recompute short-lived peak over the op walk (runtime-side info).
    for (const auto &op : graph.ops()) {
        for (df::TensorId id : graph.tensorsBornAtOp(op.id))
            if (graph.tensor(id).shortLived())
                sl_live += graph.tensor(id).pageAlignedBytes();
        sl_peak = std::max(sl_peak, sl_live);
        for (df::TensorId id : graph.tensorsDyingAtOp(op.id))
            if (graph.tensor(id).shortLived())
                sl_live -= graph.tensor(id).pageAlignedBytes();
    }
    db.setShortLivedPeakBytes(sl_peak);

    for (const auto &t : graph.tensors()) {
        TensorProfile &p = db.mutableTensor(t.id);
        p.id = t.id;
        p.bytes = t.bytes;
        p.kind = t.kind;
        p.preallocated = t.preallocated;
        p.first_layer = t.preallocated ? 0 : t.first_layer;
        p.last_layer =
            t.preallocated ? graph.numLayers() - 1 : t.last_layer;
        p.short_lived = t.shortLived();
        p.small = t.small();

        auto it = policy.placements().find(t.id);
        SENTINEL_ASSERT(it != policy.placements().end(),
                        "tensor '%s' was never allocated during profiling",
                        t.name.c_str());
        const df::TensorPlacement &pl = it->second;
        std::uint64_t total = 0;
        auto run = std::partition_point(
            counts.begin(), counts.end(), [&](const mem::PageRunCounts &c) {
                return c.endPage() <= pl.firstPage();
            });
        for (; run != counts.end() && run->first < pl.endPage(); ++run)
            total += run->total() *
                     (std::min(run->endPage(), pl.endPage()) -
                      std::max(run->first, pl.firstPage()));
        p.total_accesses = total;
        p.accesses_per_page =
            static_cast<double>(total) /
            static_cast<double>(std::max<std::uint64_t>(1, pl.numPages()));
    }

    // Layer association comes from the runtime side (which ops in which
    // layer touched which tensor) — the "semantic bridge".
    for (const auto &op : graph.ops()) {
        for (const auto &use : op.uses) {
            auto &layers = db.mutableTensor(use.tensor).access_layers;
            if (layers.empty() || layers.back() != op.layer)
                layers.push_back(op.layer);
        }
    }

    result.page_aligned_peak = pageAlignedPeak(graph);
    result.packed_peak = graph.peakMemoryBytes();

    if (opts_.gpu_pinned) {
        // Two copies of each preallocated tensor are kept during GPU
        // profiling (pinned host copy + device copy); synchronizing
        // them afterwards moves the preallocated bytes once over the
        // link toward the device (Sec. V).
        result.sync_overhead =
            transferTime(graph.preallocatedBytes(),
                         hm.promoteChannel().bandwidth());
        result.profiling_step.step_time += result.sync_overhead;
    }

    return result;
}

std::vector<PageLevelEntry>
Profiler::profilePageLevel(const df::Graph &graph,
                           mem::HeterogeneousMemory &hm,
                           const df::ExecParams &params)
{
    PackedSlowPolicy policy;
    df::Executor ex(graph, hm, params, policy);
    mem::AccessTracker tracker;
    ex.setAccessTracker(&tracker);
    ex.runStep();

    std::vector<PageLevelEntry> out;
    for (const mem::PageRunCounts &run : tracker.pageCounts())
        out.insert(out.end(), run.count, PageLevelEntry{ run.total() });
    return out;
}

} // namespace sentinel::prof
