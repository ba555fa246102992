#include "harness/experiment.hh"

#include "baselines/planned.hh"
#include "common/logging.hh"
#include "common/percentile.hh"
#include "common/thread_pool.hh"
#include "harness/cell.hh"
#include "models/registry.hh"

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

    Cell cell(cfg, policy);
    if (!cell.supported()) {
        m.supported = false;
        m.feasible = false;
        return trace;
    }

    try {
        trace.steps = cell.executor().run(cfg.steps);
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

    if (auto *pp = dynamic_cast<baselines::PlannedPolicy *>(&cell.policy()))
        m.layout_mb = static_cast<double>(pp->footprint()) / 1e6;
    if (core::SentinelPolicy *sp = cell.sentinel()) {
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
