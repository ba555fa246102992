#include "harness/experiment.hh"

#include <memory>
#include <optional>

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
#include "common/percentile.hh"
#include "common/thread_pool.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "sim/fault_injector.hh"

namespace sentinel::harness {

core::RuntimeConfig
platformConfig(Platform p, std::uint64_t fast_bytes)
{
    return p == Platform::Optane
               ? core::RuntimeConfig::optane(fast_bytes)
               : core::RuntimeConfig::gpu(fast_bytes);
}

core::RuntimeConfig
platformConfig(Platform p, std::uint64_t fast_bytes, int tiers,
               std::uint64_t mid_bytes, double mid_bw)
{
    core::RuntimeConfig rc = platformConfig(p, fast_bytes);
    if (tiers == 1)
        rc.single_tier = true;
    else if (tiers >= 3)
        rc.insertMidTiers(tiers - 2, mid_bytes, mid_bw);
    return rc;
}

const std::vector<std::string> &
cpuPolicies()
{
    static const std::vector<std::string> names = {
        "slow-only", "numa",   "planned",  "memory-mode",
        "ial",       "autotm", "sentinel", "fast-only",
    };
    return names;
}

const std::vector<std::string> &
gpuPolicies()
{
    static const std::vector<std::string> names = {
        "um", "vdnn", "autotm", "swapadvisor", "capuchin", "sentinel",
    };
    return names;
}

namespace {

bool
needsProfile(const std::string &policy)
{
    return policy == "autotm" || policy == "swapadvisor" ||
           policy == "capuchin" || policy == "sentinel";
}

std::unique_ptr<df::MemoryPolicy>
makePolicy(const std::string &name, const ExperimentConfig &cfg,
           std::uint64_t fast_bytes, const prof::ProfileDatabase *db)
{
    bool gpu = cfg.platform == Platform::Gpu;
    if (name == "fast-only" || name == "tf")
        return baselines::makeFastOnly();
    if (name == "slow-only")
        return baselines::makeSlowOnly();
    if (name == "numa")
        return baselines::makeFirstTouchNuma();
    if (name == "planned")
        return baselines::makePlanned();
    if (name == "memory-mode")
        return std::make_unique<baselines::MemoryModePolicy>(fast_bytes);
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
    if (name == "sentinel") {
        core::SentinelOptions opts = cfg.sentinel;
        opts.gpu_mode = gpu;
        if (cfg.planner == "interval")
            opts.layout_planner = core::LayoutPlanner::Interval;
        return std::make_unique<core::SentinelPolicy>(*db, opts);
    }
    SENTINEL_FATAL("unknown policy '%s'", name.c_str());
}

} // namespace

Metrics
runExperiment(const ExperimentConfig &cfg, const std::string &policy)
{
    return runExperimentSteps(cfg, policy).metrics;
}

StepTrace
runExperimentSteps(const ExperimentConfig &cfg, const std::string &policy)
{
    StepTrace trace;
    Metrics &m = trace.metrics;
    m.policy = policy;
    m.model = cfg.model;
    m.batch = cfg.batch;

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
    df::Graph graph = [&] {
        try {
            return models::makeModel(cfg.model, cfg.batch);
        } catch (const std::runtime_error &e) {
            throw ConfigError(
                strprintf("config: cannot build model: %s", e.what()));
        }
    }();

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
        double frac = cfg.sentinel.rs_cap_fraction;
        if (frac <= 0.0 || frac > 1.0)
            throw ConfigError(strprintf(
                "config: sentinel.rs_cap_fraction must lie in (0, 1] "
                "(got %g)",
                frac));
        // The pool cap is what the policy itself would reserve; if it
        // rounds up to the whole tier nothing is left for long-lived
        // pages and the run degenerates.
        std::uint64_t rs_cap = mem::roundUpToPages(
            static_cast<std::uint64_t>(
                static_cast<double>(fast_bytes) * frac));
        if (rs_cap >= fast_bytes)
            throw ConfigError(strprintf(
                "config: reserved short-lived pool cap (%llu bytes at "
                "rs_cap_fraction %g) would consume the whole fast tier "
                "(%llu bytes); raise fast_bytes or lower the fraction",
                static_cast<unsigned long long>(rs_cap), frac,
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

    if (policy == "vdnn" && !baselines::VdnnPolicy::supports(graph)) {
        m.supported = false;
        m.feasible = false;
        return trace;
    }

    // Profiling phase (one step on a scratch memory system).
    std::optional<prof::ProfileResult> profile;
    if (needsProfile(policy)) {
        mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
        prof::Profiler profiler(rc.profiler);
        profile = profiler.profile(graph, prof_hm, rc.exec);
    }

    auto pol = makePolicy(policy, cfg, fast_bytes,
                          profile ? &profile->db : nullptr);

    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Executor ex(graph, hm, rc.exec, *pol);
    if (cfg.telemetry) {
        hm.setTelemetry(cfg.telemetry);
        ex.setTelemetry(cfg.telemetry);
        if (auto *sp = dynamic_cast<core::SentinelPolicy *>(pol.get()))
            sp->setTelemetry(cfg.telemetry);
    }
    if (cfg.attribution) {
        ex.setAttribution(cfg.attribution);
        hm.setAttribution(cfg.attribution);
    }
    if (cfg.audit)
        if (auto *sp = dynamic_cast<core::SentinelPolicy *>(pol.get()))
            sp->setAudit(cfg.audit);

    // Chaos mode: the injector perturbs only the training run.  The
    // profile above was taken on the healthy system, so a fault spec
    // starting at step k makes the profile stale from k onward.
    std::optional<sim::FaultInjector> injector;
    if (!cfg.chaos.empty()) {
        sim::FaultSpec spec = sim::FaultSpec::parse(cfg.chaos);
        spec.seed = cfg.chaos_seed;
        injector.emplace(std::move(spec));
        ex.setFaultInjector(&*injector);
    }

    try {
        trace.steps = ex.run(cfg.steps);
    } catch (const std::runtime_error &) {
        // Out of memory (both tiers full): the configuration is
        // infeasible for this policy.
        m.feasible = false;
        trace.steps.clear();
        return trace;
    }

    int measured = 0;
    double slow_traffic = 0.0;
    std::vector<double> step_ms;
    for (const auto &s : trace.steps) {
        if (s.step < cfg.warmup)
            continue;
        ++measured;
        step_ms.push_back(toMillis(s.step_time));
        m.step_time_ms += toMillis(s.step_time);
        m.exposed_ms += toMillis(s.exposed_migration);
        m.recompute_ms += toMillis(s.recompute_time);
        m.fault_ms += toMillis(s.fault_overhead);
        m.promoted_mb += static_cast<double>(s.promoted_bytes) / 1e6;
        m.demoted_mb += static_cast<double>(s.demoted_bytes) / 1e6;
        m.bytes_fast_mb += static_cast<double>(s.bytes_fast) / 1e6;
        m.bytes_slow_mb += static_cast<double>(s.bytes_slow) / 1e6;
        m.peak_fast_mb = std::max(
            m.peak_fast_mb, static_cast<double>(s.peak_fast_used) / 1e6);
        slow_traffic += static_cast<double>(s.bytes_slow);
    }
    SENTINEL_ASSERT(measured > 0, "no measured steps (warmup too long)");
    PercentileSummary pct = PercentileSummary::of(std::move(step_ms));
    m.step_p50_ms = pct.p50;
    m.step_p95_ms = pct.p95;
    m.step_p99_ms = pct.p99;
    double n = static_cast<double>(measured);
    m.step_time_ms /= n;
    m.exposed_ms /= n;
    m.recompute_ms /= n;
    m.fault_ms /= n;
    m.promoted_mb /= n;
    m.demoted_mb /= n;
    m.bytes_fast_mb /= n;
    m.bytes_slow_mb /= n;
    m.throughput =
        m.step_time_ms > 0.0 ? cfg.batch / (m.step_time_ms / 1e3) : 0.0;

    // GPU residency rule: compute must be fed from device memory.
    // A small page-in slack is tolerated (real runtimes stage a few
    // buffers through pinned host memory); a steady stream of host
    // accesses marks the batch infeasible.  UM is exempt: it pages on
    // demand by design.
    if (cfg.platform == Platform::Gpu && policy != "um") {
        double per_step = slow_traffic / n;
        double total =
            (m.bytes_fast_mb + m.bytes_slow_mb) * 1e6;
        m.feasible = per_step < std::max(16e6, 0.02 * total);
    }

    if (auto *pp = dynamic_cast<baselines::PlannedPolicy *>(pol.get()))
        m.layout_mb = static_cast<double>(pp->footprint()) / 1e6;
    if (auto *sp = dynamic_cast<core::SentinelPolicy *>(pol.get())) {
        m.layout_mb =
            static_cast<double>(sp->layoutFootprint()) / 1e6;
        m.mil = sp->migrationPlan().mil;
        m.case3_events = sp->case3Events();
        m.trial_steps = sp->trialStepsUsed();
        m.pool_mb = static_cast<double>(sp->reservedPoolBytes()) / 1e6;
        m.divergence_events = sp->divergenceEvents();
        m.replans = sp->replans();
        m.trial_decided = sp->trialDecided();
        m.trial_state = sp->trialStateName();
        if (!m.trial_decided)
            SENTINEL_WARN("%s run ended mid test-and-trial (state %s); "
                          "stall mode left at trial value %d",
                          m.policy.c_str(), m.trial_state.c_str(),
                          sp->stallModeChosen() ? 1 : 0);
    }
    return trace;
}

std::vector<Metrics>
runAll(const ExperimentConfig &cfg,
       const std::vector<std::string> &policies)
{
    std::vector<Metrics> out;
    out.reserve(policies.size());
    for (const auto &p : policies)
        out.push_back(runExperiment(cfg, p));
    return out;
}

std::vector<Metrics>
runAllParallel(const ExperimentConfig &cfg,
               const std::vector<std::string> &policies, int jobs)
{
    if (cfg.telemetry || cfg.attribution || cfg.audit)
        return runAll(cfg, policies);
    std::vector<Metrics> out(policies.size());
    parallelFor(policies.size(), jobs, [&](std::size_t i) {
        out[i] = runExperiment(cfg, policies[i]);
    });
    return out;
}

std::vector<Metrics>
runSweep(const std::vector<SweepCell> &cells, int jobs)
{
    std::vector<Metrics> out(cells.size());
    std::vector<std::size_t> concurrent;
    std::vector<std::size_t> serial;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        bool shared = cells[i].cfg.telemetry ||
                      cells[i].cfg.attribution || cells[i].cfg.audit;
        (shared ? serial : concurrent).push_back(i);
    }
    parallelFor(concurrent.size(), jobs, [&](std::size_t k) {
        std::size_t i = concurrent[k];
        out[i] = runExperiment(cells[i].cfg, cells[i].policy);
    });
    for (std::size_t i : serial)
        out[i] = runExperiment(cells[i].cfg, cells[i].policy);
    return out;
}

int
maxBatchSearch(const std::string &model, const std::string &policy,
               std::uint64_t fast_bytes, int cap, int jobs)
{
    auto feasible = [&](int batch) {
        if (policy == "tf") {
            // Plain TensorFlow: everything must fit in device memory.
            df::Graph g = models::makeModel(model, batch);
            return g.peakMemoryBytes() <= fast_bytes;
        }
        ExperimentConfig cfg;
        cfg.model = model;
        cfg.batch = batch;
        cfg.platform = Platform::Gpu;
        cfg.fast_bytes = fast_bytes;
        cfg.steps = 3;
        cfg.warmup = 2;
        Metrics m = runExperiment(cfg, policy);
        return m.supported && m.feasible;
    };

    int lo;
    int hi;
    if (jobs > 1) {
        // Parallel probe: evaluate the whole power-of-two ladder
        // (1, 2, 4, ... <= cap) concurrently, then read off the same
        // bracket the serial probe would have found.  A few rungs above
        // the answer are wasted work; on a multi-core host the ladder
        // finishes in roughly the time of its slowest rung.
        std::vector<int> ladder;
        for (int b = 1; b <= cap; b *= 2)
            ladder.push_back(b);
        std::vector<char> ok(ladder.size(), 0);
        parallelFor(ladder.size(), jobs,
                    [&](std::size_t i) { ok[i] = feasible(ladder[i]); });
        if (!ok[0])
            return 0;
        std::size_t k = 1;
        while (k < ladder.size() && ok[k])
            ++k;
        lo = ladder[k - 1];
        hi = k < ladder.size() ? ladder[k] : cap + 1;
    } else {
        if (!feasible(1))
            return 0;
        // Exponential probe, then binary search.
        lo = 1;
        hi = 2;
        while (hi <= cap && feasible(hi)) {
            lo = hi;
            hi *= 2;
        }
        hi = std::min(hi, cap + 1);
    }
    while (lo + 1 < hi) {
        int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace sentinel::harness
