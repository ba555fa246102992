#include "harness/cell.hh"

#include <algorithm>
#include <stdexcept>

#include "baselines/autotm.hh"
#include "baselines/capuchin.hh"
#include "baselines/ial.hh"
#include "baselines/memory_mode.hh"
#include "baselines/planned.hh"
#include "baselines/reference.hh"
#include "baselines/swapadvisor.hh"
#include "baselines/unified_memory.hh"
#include "baselines/vdnn.hh"
#include "common/logging.hh"
#include "models/registry.hh"

namespace sentinel::harness {

namespace {

bool
needsProfile(const std::string &policy)
{
    return policy == "autotm" || policy == "swapadvisor" ||
           policy == "capuchin" || policy == "sentinel";
}

std::unique_ptr<df::MemoryPolicy>
makePolicy(const std::string &name, const core::RuntimeConfig &rc,
           const prof::ProfileDatabase *db)
{
    bool gpu = rc.sentinel.gpu_mode;
    if (name == "fast-only" || name == "tf")
        return baselines::makeFastOnly();
    if (name == "slow-only")
        return baselines::makeSlowOnly();
    if (name == "numa")
        return baselines::makeFirstTouchNuma();
    if (name == "planned")
        return baselines::makePlanned();
    if (name == "memory-mode")
        return std::make_unique<baselines::MemoryModePolicy>(
            rc.fast.capacity);
    if (name == "ial")
        return std::make_unique<baselines::IalPolicy>();
    if (name == "um")
        return std::make_unique<baselines::UnifiedMemoryPolicy>();
    if (name == "vdnn")
        return std::make_unique<baselines::VdnnPolicy>();
    if (name == "autotm")
        return std::make_unique<baselines::AutoTmPolicy>(*db, gpu);
    if (name == "swapadvisor")
        return std::make_unique<baselines::SwapAdvisorPolicy>(*db, gpu);
    if (name == "capuchin")
        return std::make_unique<baselines::CapuchinPolicy>(*db, gpu);
    if (name == "sentinel")
        return std::make_unique<core::SentinelPolicy>(*db, rc.sentinel);
    SENTINEL_FATAL("unknown policy '%s'", name.c_str());
}

} // namespace

df::Graph
buildGraph(const ExperimentConfig &cfg)
{
    if (cfg.batch <= 0)
        throw ConfigError(
            strprintf("config: batch must be positive (got %d)",
                      cfg.batch));
    if (cfg.steps <= 0)
        throw ConfigError(
            strprintf("config: steps must be positive (got %d)",
                      cfg.steps));
    if (cfg.warmup < 0 || cfg.warmup >= cfg.steps)
        throw ConfigError(strprintf(
            "config: warmup must lie in [0, steps) (warmup %d, steps %d)",
            cfg.warmup, cfg.steps));
    if (cfg.fast_bytes == 0 && cfg.fast_fraction <= 0.0)
        throw ConfigError(strprintf(
            "config: fast_fraction must be positive (got %g)",
            cfg.fast_fraction));
    if (cfg.planner != "greedy" && cfg.planner != "interval")
        throw ConfigError(strprintf(
            "config: planner must be 'greedy' or 'interval' (got '%s')",
            cfg.planner.c_str()));
    if (cfg.tiers < 1 || cfg.tiers > static_cast<int>(mem::kMaxTiers))
        throw ConfigError(strprintf(
            "config: tiers must lie in [1, %u] (got %d)", mem::kMaxTiers,
            cfg.tiers));
    if (cfg.tiers >= 3 && cfg.mid_bytes == 0 && cfg.mid_fraction <= 0.0)
        throw ConfigError(strprintf(
            "config: mid_fraction must be positive (got %g)",
            cfg.mid_fraction));
    if (cfg.mid_bw < 0.0)
        throw ConfigError(strprintf(
            "config: mid_bw must be non-negative (got %g)", cfg.mid_bw));

    // A bad model name (unknown, or a malformed synthetic:<seed> spec)
    // is a rejected input, not an infeasible run: surface it as
    // ConfigError instead of the registry's raw runtime_error.
    try {
        return models::makeModel(cfg.model, cfg.batch);
    } catch (const std::runtime_error &e) {
        throw ConfigError(
            strprintf("config: cannot build model: %s", e.what()));
    }
}

void
checkCell(const ExperimentConfig &cfg, const std::string &policy)
{
    buildGraph(cfg);
    if (!cfg.chaos.empty())
        sim::FaultSpec::parse(cfg.chaos);
    // makePolicy() knows each platform's policies and "tf".
    auto in = [&](const std::vector<std::string> &names) {
        return std::find(names.begin(), names.end(), policy) != names.end();
    };
    if (policy != "tf" && !in(cpuPolicies()) && !in(gpuPolicies()))
        throw ConfigError(
            strprintf("config: unknown policy '%s'", policy.c_str()));
}

core::RuntimeConfig
sizePlatform(const ExperimentConfig &cfg, const std::string &policy,
             const df::Graph &graph)
{
    std::uint64_t peak = graph.peakMemoryBytes();
    std::uint64_t fast_bytes =
        cfg.fast_bytes != 0
            ? cfg.fast_bytes
            : mem::roundUpToPages(static_cast<std::uint64_t>(
                  static_cast<double>(peak) * cfg.fast_fraction));
    // The fast-only reference gets a fast tier that holds everything.
    if (policy == "fast-only" && cfg.fast_bytes == 0)
        fast_bytes = mem::roundUpToPages(peak + (peak >> 2) +
                                         (64ull << 20));

    if (fast_bytes < mem::kPageSize)
        throw ConfigError(strprintf(
            "config: fast tier (%llu bytes) is smaller than one page "
            "(%llu); raise fast_bytes or fast_fraction",
            static_cast<unsigned long long>(fast_bytes),
            static_cast<unsigned long long>(mem::kPageSize)));
    if (policy == "sentinel" && cfg.sentinel.use_reserved_pool) {
        // The pool cap is what the policy itself would reserve; if it
        // rounds up to the whole tier nothing is left for long-lived
        // pages and the run degenerates.
        std::uint64_t rs_cap = mem::roundUpToPages(
            static_cast<std::uint64_t>(
                static_cast<double>(fast_bytes) * core::kRsCapFraction));
        if (rs_cap >= fast_bytes)
            throw ConfigError(strprintf(
                "config: reserved short-lived pool cap (%llu bytes, "
                "%g of the tier) would consume the whole fast tier "
                "(%llu bytes); raise fast_bytes",
                static_cast<unsigned long long>(rs_cap),
                core::kRsCapFraction,
                static_cast<unsigned long long>(fast_bytes)));
    }

    // Middle-tier sizing: explicit bytes, or a multiple of the fast
    // tier.  A sub-page middle tier could never hold a staged page —
    // reject it instead of simulating a chain that silently degrades.
    std::uint64_t mid_bytes = 0;
    if (cfg.tiers >= 3) {
        mid_bytes = cfg.mid_bytes != 0
                        ? cfg.mid_bytes
                        : mem::roundUpToPages(static_cast<std::uint64_t>(
                              static_cast<double>(fast_bytes) *
                              cfg.mid_fraction));
        if (mid_bytes < mem::kPageSize)
            throw ConfigError(strprintf(
                "config: middle tier (%llu bytes) is smaller than one "
                "page (%llu); raise mid_bytes or mid_fraction",
                static_cast<unsigned long long>(mid_bytes),
                static_cast<unsigned long long>(mem::kPageSize)));
    }

    core::RuntimeConfig rc = platformConfig(
        cfg.platform, fast_bytes, cfg.tiers, mid_bytes, cfg.mid_bw);
    rc.sentinel = cfg.sentinel;
    rc.sentinel.gpu_mode = cfg.platform == Platform::Gpu;
    if (cfg.planner == "interval")
        rc.sentinel.layout_planner = core::LayoutPlanner::Interval;
    return rc;
}

Cell::Cell(const ExperimentConfig &cfg, const std::string &policy,
           const prof::ProfileDatabase *profile)
    : graph_(buildGraph(cfg)),
      platform_(sizePlatform(cfg, policy, graph_))
{
    if (profile && (profile->numTensors() != graph_.numTensors() ||
                    profile->numLayers() != graph_.numLayers()))
        throw ConfigError(strprintf(
            "config: profile of %zu tensors and %d layers does not "
            "match %s at batch %d (%zu tensors, %d layers)",
            profile->numTensors(), profile->numLayers(),
            cfg.model.c_str(), cfg.batch, graph_.numTensors(),
            graph_.numLayers()));
    // A malformed fault spec fails before anything is simulated.
    std::optional<sim::FaultSpec> faults;
    if (!cfg.chaos.empty()) {
        faults = sim::FaultSpec::parse(cfg.chaos);
        faults->seed = cfg.chaos_seed;
    }
    build(policy, profile);
    if (!supported())
        return;

    // Observers and faults attach to the training run only: the
    // profile above was taken on the healthy, untraced system, so an
    // exported timeline has one clock and a fault spec starting at
    // step k makes the profile stale from k onward.
    if (cfg.telemetry) {
        hm_->setTelemetry(cfg.telemetry);
        executor_->setTelemetry(cfg.telemetry);
        if (sentinel_)
            sentinel_->setTelemetry(cfg.telemetry);
    }
    if (cfg.attribution) {
        executor_->setAttribution(cfg.attribution);
        hm_->setAttribution(cfg.attribution);
    }
    if (cfg.audit && sentinel_)
        sentinel_->setAudit(cfg.audit);
    if (faults) {
        injector_.emplace(std::move(*faults));
        executor_->setFaultInjector(&*injector_);
    }
}

Cell::Cell(df::Graph graph, core::RuntimeConfig platform,
           const std::string &policy)
    : graph_(std::move(graph)), platform_(std::move(platform))
{
    build(policy, nullptr);
}

void
Cell::build(const std::string &policy, const prof::ProfileDatabase *profile)
{
    if (policy == "vdnn" && !baselines::VdnnPolicy::supports(graph_))
        return;

    // The profiling step runs on a scratch memory system: the
    // page-aligned profiling allocation must not linger in the one the
    // policy trains on.
    if (!profile && needsProfile(policy)) {
        mem::HeterogeneousMemory prof_hm(platform_.tierChain(),
                                         platform_.linkChain());
        prof::Profiler profiler(platform_.profiler);
        profile_ = profiler.profile(graph_, prof_hm, platform_.exec);
        profile = &profile_->db;
    }

    policy_ = makePolicy(policy, platform_, profile);
    sentinel_ = dynamic_cast<core::SentinelPolicy *>(policy_.get());
    hm_.emplace(platform_.tierChain(), platform_.linkChain());
    executor_.emplace(graph_, *hm_, platform_.exec, *policy_);
}

} // namespace sentinel::harness
