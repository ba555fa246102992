/**
 * @file
 * perfbench: the simulator's benchmark program.
 *
 * One process runs one workload on one thread.  A workload is a fixed
 * `sentinel-cli run` cell (model, batch, platform, tier chain, policy);
 * a *rep* assembles that cell from public calls — models::makeModel,
 * harness::platformConfig, prof::Profiler::profile, the policy,
 * mem::HeterogeneousMemory, df::Executor::runStep — and runs the CLI's
 * 9-step schedule (6 warm-up steps), timing every call from outside.
 * Reps repeat until --seconds have passed.  Set-up is reported as the
 * fastest rep's, step time as the fastest measured step.
 *
 * --trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
 * reps with traced ones: the traced rep drives the executor through a
 * forwarding MemoryPolicy that times the grouped policy hooks and
 * counts the per-page ones, and attaches a telemetry::Session and an
 * AttributionEngine.  It reports the per-layer split.
 *
 * Every rep is checked: it must be supported and feasible, keep each
 * tier's peak within its capacity, and produce StepStats bit-identical
 * to every other rep (a traced rep included).  The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload cpu-resnet200 --seconds 10 --trace 0
 *             [--seed N] [--steps S --warmup W]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/unified_memory.hh"
#include "common/logging.hh"
#include "common/percentile.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "dataflow/policy.hh"
#include "harness/experiment.hh"
#include "mem/hm.hh"
#include "mem/page.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "telemetry/attribution.hh"
#include "telemetry/session.hh"

using namespace sentinel;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ------------------------------------------------------------

struct Workload {
    const char *name;
    const char *model;
    int batch;
    harness::Platform platform;
    int tiers;
    /** Fast-tier size in MiB; 0 = 20% of the model's peak (the CLI's
     *  --fraction default). */
    std::uint64_t fast_mib;
    const char *policy; ///< "sentinel" or "um"
};

// Each row is `sentinel-cli run` with the flags named in the README.
const Workload kWorkloads[] = {
    { "cpu-resnet200", "resnet200", 8, harness::Platform::Optane, 2, 0,
      "sentinel" },
    { "gpu-pressure-dcgan", "dcgan", 52, harness::Platform::Gpu, 2, 75,
      "sentinel" },
    { "ntier3-llm-medium", "llm:medium", 2, harness::Platform::Optane, 3, 0,
      "sentinel" },
    { "gpu-um-resnet200", "resnet200", 8, harness::Platform::Gpu, 2, 0,
      "um" },
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// --- Traced run: a forwarding policy --------------------------------------

/** Host time of the grouped policy hooks and counts of the per-page
 *  ones, accumulated over one step. */
struct HookTimes {
    std::int64_t alloc_ns = 0;  ///< allocate, onTensorAllocated
    std::int64_t layer_ns = 0;  ///< onLayerBegin, onLayerEnd
    std::int64_t access_ns = 0; ///< onRangeAccess, onPageAccess
    std::int64_t free_ns = 0;   ///< onTensorFreed
    std::int64_t step_ns = 0;   ///< onTrainingStart, onStepBegin/End
    std::uint64_t access_calls = 0;
    std::uint64_t unmap_calls = 0; ///< onPageUnmapped (counted only)

    std::int64_t
    timedNs() const
    {
        return alloc_ns + layer_ns + access_ns + free_ns + step_ns;
    }
};

/**
 * Forwards every hook to the wrapped policy.  Grouped hooks are timed
 * with two steady_clock reads each; per-page hooks (onPageUnmapped,
 * stallForInflight) are only forwarded or counted, because timing them
 * would cost more than the work they do.
 */
class TimedPolicy : public df::MemoryPolicy
{
  public:
    explicit TimedPolicy(df::MemoryPolicy &inner) : inner_(inner) {}

    HookTimes &times() { return t_; }

    std::string name() const override { return inner_.name(); }

    void
    onTrainingStart(df::Executor &ex) override
    {
        Span s(t_.step_ns);
        inner_.onTrainingStart(ex);
    }
    void
    onStepBegin(df::Executor &ex, int step) override
    {
        Span s(t_.step_ns);
        inner_.onStepBegin(ex, step);
    }
    void
    onStepEnd(df::Executor &ex, int step) override
    {
        Span s(t_.step_ns);
        inner_.onStepEnd(ex, step);
    }
    void
    onLayerBegin(df::Executor &ex, int layer) override
    {
        Span s(t_.layer_ns);
        inner_.onLayerBegin(ex, layer);
    }
    void
    onLayerEnd(df::Executor &ex, int layer) override
    {
        Span s(t_.layer_ns);
        inner_.onLayerEnd(ex, layer);
    }
    df::AllocDecision
    allocate(df::Executor &ex, const df::TensorDesc &tensor) override
    {
        Span s(t_.alloc_ns);
        return inner_.allocate(ex, tensor);
    }
    void
    onTensorAllocated(df::Executor &ex, df::TensorId id,
                      const df::TensorPlacement &pl) override
    {
        Span s(t_.alloc_ns);
        inner_.onTensorAllocated(ex, id, pl);
    }
    void
    onTensorFreed(df::Executor &ex, df::TensorId id,
                  const df::TensorPlacement &pl) override
    {
        Span s(t_.free_ns);
        inner_.onTensorFreed(ex, id, pl);
    }
    void
    onPageUnmapped(df::Executor &ex, mem::PageId page) override
    {
        ++t_.unmap_calls;
        inner_.onPageUnmapped(ex, page);
    }
    df::PageAccessResult
    onPageAccess(df::Executor &ex, mem::PageId page, bool is_write) override
    {
        ++t_.access_calls;
        Span s(t_.access_ns);
        return inner_.onPageAccess(ex, page, is_write);
    }
    void
    onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                  std::vector<df::AccessSegment> &out) override
    {
        ++t_.access_calls;
        Span s(t_.access_ns);
        inner_.onRangeAccess(ex, run, is_write, out);
    }
    bool
    stallForInflight(df::Executor &ex, mem::PageId page) override
    {
        return inner_.stallForInflight(ex, page);
    }

  private:
    /** Adds the lifetime of the scope to one accumulator. */
    class Span
    {
      public:
        explicit Span(std::int64_t &acc) : acc_(acc), t0_(Clock::now()) {}
        ~Span()
        {
            acc_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0_)
                        .count();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        std::int64_t &acc_;
        Clock::time_point t0_;
    };

    df::MemoryPolicy &inner_;
    HookTimes t_;
};

// --- One rep ----------------------------------------------------------------

/** Simulated-side counters read at the warm-up boundary and at the end,
 *  so the per-layer counts cover the measured steps only. */
struct SimCounters {
    std::uint64_t promoted_pages = 0;
    std::uint64_t demoted_pages = 0;
    std::uint64_t demand_evictions = 0;
    std::uint64_t um_faults = 0;
    /** [link][0 = up, 1 = down]; links beyond the chain stay zero. */
    std::uint64_t transfers[2][2] = {};
    Tick busy[2][2] = {};
};

struct Rep {
    bool ok = true;
    std::string why; ///< first failed check

    double setup_s = 0.0; ///< rep start until step 0 returns
    double build_s = 0.0; ///< models::makeModel
    double profile_s = 0.0;
    std::vector<double> step_ms; ///< host time of each measured step
    std::vector<df::StepStats> stats;

    // Traced reps only.
    std::vector<HookTimes> hooks; ///< one per measured step
    SimCounters delta;            ///< measured-window counter deltas
    telemetry::AttrBucket attr;   ///< summed over measured steps
    Tick sim_window = 0;          ///< simulated time of measured steps
    unsigned links = 0;
};

bool
sameStats(const df::StepStats &a, const df::StepStats &b)
{
    return a.step == b.step && a.step_time == b.step_time &&
           a.compute_time == b.compute_time && a.mem_time == b.mem_time &&
           a.exposed_migration == b.exposed_migration &&
           a.fault_overhead == b.fault_overhead &&
           a.recompute_time == b.recompute_time &&
           a.policy_time == b.policy_time && a.bytes_fast == b.bytes_fast &&
           a.bytes_slow == b.bytes_slow &&
           a.slow_bytes_by_kind == b.slow_bytes_by_kind &&
           a.promoted_bytes == b.promoted_bytes &&
           a.demoted_bytes == b.demoted_bytes &&
           a.peak_fast_used == b.peak_fast_used &&
           a.peak_tier_used == b.peak_tier_used &&
           a.num_stalls == b.num_stalls;
}

bool
sameStats(const std::vector<df::StepStats> &a,
          const std::vector<df::StepStats> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const df::StepStats &x, const df::StepStats &y) {
                          return sameStats(x, y);
                      });
}

SimCounters
readCounters(const mem::HeterogeneousMemory &hm, telemetry::Session &session,
             const df::MemoryPolicy &pol)
{
    SimCounters c;
    c.promoted_pages = hm.stats().promoted_pages;
    c.demoted_pages = hm.stats().demoted_pages;
    c.demand_evictions =
        session.metrics().counter("sentinel.demand_evictions").value();
    if (auto *um = dynamic_cast<const baselines::UnifiedMemoryPolicy *>(&pol))
        c.um_faults = um->demandFaults();
    for (unsigned l = 0; l < std::min(hm.numLinks(), 2u); ++l)
        for (int d = 0; d < 2; ++d) {
            const sim::BandwidthChannel &ch = hm.linkChannel(l, d == 0);
            c.transfers[l][d] = ch.numTransfers();
            c.busy[l][d] = ch.busyTime();
        }
    return c;
}

SimCounters
minus(const SimCounters &b, const SimCounters &a)
{
    SimCounters d;
    d.promoted_pages = b.promoted_pages - a.promoted_pages;
    d.demoted_pages = b.demoted_pages - a.demoted_pages;
    d.demand_evictions = b.demand_evictions - a.demand_evictions;
    d.um_faults = b.um_faults - a.um_faults;
    for (int l = 0; l < 2; ++l)
        for (int k = 0; k < 2; ++k) {
            d.transfers[l][k] = b.transfers[l][k] - a.transfers[l][k];
            d.busy[l][k] = b.busy[l][k] - a.busy[l][k];
        }
    return d;
}

/** The checks a run must pass besides not throwing. */
void
checkRep(Rep &r, const Workload &w, mem::HeterogeneousMemory &hm,
         int warmup)
{
    for (const df::StepStats &s : r.stats)
        for (unsigned t = 0; t < hm.numTiers(); ++t)
            if (s.peak_tier_used[t] > hm.tier(mem::makeTier(t)).capacity()) {
                r.ok = false;
                r.why = strprintf("step %d: tier %u peak over capacity",
                                  s.step, t);
                return;
            }
    // harness::runExperiment's GPU residency rule: compute is fed from
    // device memory (UM is exempt; it pages on demand by design).
    if (w.platform == harness::Platform::Gpu &&
        std::string(w.policy) != "um") {
        double slow = 0.0, total = 0.0, n = 0.0;
        for (const df::StepStats &s : r.stats)
            if (s.step >= warmup) {
                slow += static_cast<double>(s.bytes_slow);
                total += static_cast<double>(s.bytes_fast + s.bytes_slow);
                n += 1.0;
            }
        if (!(slow / n < std::max(16e6, 0.02 * total / n))) {
            r.ok = false;
            r.why = "infeasible: steady host-memory traffic on the GPU";
        }
    }
}

Rep
runRep(const Workload &w, int steps, int warmup, bool traced)
{
    Rep r;
    const bool gpu = w.platform == harness::Platform::Gpu;
    const Clock::time_point t0 = Clock::now();

    df::Graph graph = models::makeModel(w.model, w.batch);
    r.build_s = secondsSince(t0);

    std::uint64_t fast_bytes =
        w.fast_mib != 0 ? w.fast_mib << 20
                        : mem::roundUpToPages(static_cast<std::uint64_t>(
                              static_cast<double>(graph.peakMemoryBytes()) *
                              0.2));
    std::uint64_t mid_bytes =
        w.tiers >= 3 ? mem::roundUpToPages(static_cast<std::uint64_t>(
                           static_cast<double>(fast_bytes) * 4.0))
                     : 0;
    core::RuntimeConfig rc = harness::platformConfig(
        w.platform, fast_bytes, w.tiers, mid_bytes, /*mid_bw=*/0.0);

    std::optional<prof::ProfileResult> profile;
    std::unique_ptr<df::MemoryPolicy> pol;
    core::SentinelPolicy *sp = nullptr;
    if (std::string(w.policy) == "sentinel") {
        const Clock::time_point tp = Clock::now();
        mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
        prof::Profiler profiler(rc.profiler);
        profile = profiler.profile(graph, prof_hm, rc.exec);
        r.profile_s = secondsSince(tp);
        core::SentinelOptions opts;
        opts.gpu_mode = gpu;
        auto owned = std::make_unique<core::SentinelPolicy>(profile->db, opts);
        sp = owned.get();
        pol = std::move(owned);
    } else {
        pol = std::make_unique<baselines::UnifiedMemoryPolicy>();
    }

    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    std::optional<TimedPolicy> timed;
    std::optional<telemetry::Session> session;
    std::optional<telemetry::AttributionEngine> attr;
    df::MemoryPolicy &driven = traced ? timed.emplace(*pol) : *pol;
    df::Executor ex(graph, hm, rc.exec, driven);
    if (traced) {
        session.emplace();
        attr.emplace();
        hm.setTelemetry(&*session);
        ex.setTelemetry(&*session);
        if (sp)
            sp->setTelemetry(&*session);
        hm.setAttribution(&*attr);
        ex.setAttribution(&*attr);
        r.links = hm.numLinks();
    }

    SimCounters at_warmup;
    try {
        for (int step = 0; step < steps; ++step) {
            if (traced) {
                if (step == warmup)
                    at_warmup = readCounters(hm, *session, *pol);
                timed->times() = HookTimes{};
            }
            const Clock::time_point ts = Clock::now();
            r.stats.push_back(ex.runStep());
            const double dt = secondsSince(ts);
            if (step == 0)
                r.setup_s = secondsSince(t0);
            if (step >= warmup) {
                r.step_ms.push_back(dt * 1e3);
                if (traced)
                    r.hooks.push_back(timed->times());
            }
        }
    } catch (const std::runtime_error &e) {
        // The harness maps a runtime_error out of a step (both tiers
        // full) to an infeasible run.
        r.ok = false;
        r.why = std::string("infeasible: ") + e.what();
        return r;
    }

    if (traced) {
        r.delta = minus(readCounters(hm, *session, *pol), at_warmup);
        if (!attr->allExact() ||
            attr->steps().size() != static_cast<std::size_t>(steps)) {
            r.ok = false;
            r.why = "attribution does not sum to the step totals";
            return r;
        }
        for (const telemetry::StepAttribution &sa : attr->steps())
            if (sa.step >= warmup) {
                r.attr.add(sa.bucket);
                r.sim_window += sa.step_time;
            }
    }
    checkRep(r, w, hm, warmup);
    return r;
}

// --- Statistics and output --------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
emit(const std::vector<Metric> &metrics, bool correct, int attempted,
     int failed)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB on Linux
}

/** Per-step mean of a measured-window total. */
double
perStep(double total, std::size_t steps)
{
    return steps ? total / static_cast<double>(steps) : 0.0;
}

std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, int warmup)
{
    std::vector<double> setup, steps;
    for (const Rep &r : reps) {
        setup.push_back(r.setup_s);
        steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
    }
    double sim_step = 0.0, sim_exposed = 0.0;
    std::size_t n = 0;
    for (const df::StepStats &s : reps.front().stats)
        if (s.step >= warmup) {
            sim_step += toMillis(s.step_time);
            sim_exposed += toMillis(s.exposed_migration);
            ++n;
        }
    // Best-of-N for host times: neighbours on a shared host slow whole
    // stretches of a run by up to 2x, and the fastest set-up and step are
    // ones they did not touch.
    return {
        { "setup_s", *std::min_element(setup.begin(), setup.end()), "s" },
        { "host_step_ms.min", *std::min_element(steps.begin(), steps.end()),
          "ms" },
        { "peak_rss_mb", peakRssMb(), "MB" },
        { "sim_step_ms", perStep(sim_step, n), "sim_ms" },
        { "sim_exposed_ms", perStep(sim_exposed, n), "sim_ms" },
    };
}

std::vector<Metric>
perLayer(const std::vector<Rep> &plain, const std::vector<Rep> &traced)
{
    std::vector<double> plain_steps, build, profile;
    for (const Rep &r : plain)
        plain_steps.insert(plain_steps.end(), r.step_ms.begin(),
                           r.step_ms.end());
    for (const std::vector<Rep> *set : { &plain, &traced })
        for (const Rep &r : *set) {
            build.push_back(r.build_s);
            profile.push_back(r.profile_s);
        }

    // Host times: medians over every traced measured step.
    std::vector<double> step_s, self_s, alloc_s, layer_s, access_s, free_s,
        hook_step_s;
    double access_calls = 0.0, unmap_calls = 0.0;
    for (const Rep &r : traced)
        for (std::size_t i = 0; i < r.hooks.size(); ++i) {
            const HookTimes &h = r.hooks[i];
            double st = r.step_ms[i] / 1e3;
            step_s.push_back(st);
            self_s.push_back(st - static_cast<double>(h.timedNs()) / 1e9);
            alloc_s.push_back(static_cast<double>(h.alloc_ns) / 1e9);
            layer_s.push_back(static_cast<double>(h.layer_ns) / 1e9);
            access_s.push_back(static_cast<double>(h.access_ns) / 1e9);
            free_s.push_back(static_cast<double>(h.free_ns) / 1e9);
            hook_step_s.push_back(static_cast<double>(h.step_ns) / 1e9);
            access_calls += static_cast<double>(h.access_calls);
            unmap_calls += static_cast<double>(h.unmap_calls);
        }

    // Simulated side: every traced rep is bit-identical (checked), so
    // the first one's measured window speaks for all of them.
    const Rep &t = traced.front();
    const std::size_t n = t.hooks.size();
    const std::size_t all = step_s.size();
    const double window = static_cast<double>(t.sim_window);
    const telemetry::AttrBucket &a = t.attr;
    auto attrMs = [&](telemetry::AttrComponent c) {
        return perStep(toMillis(a.component(c)), n);
    };
    double peak_fast = 0.0, peak_mid = 0.0;
    for (const df::StepStats &s : t.stats) {
        peak_fast = std::max(peak_fast,
                             static_cast<double>(s.peak_tier_used[0]) / 1e6);
        if (t.links >= 2)
            peak_mid = std::max(
                peak_mid, static_cast<double>(s.peak_tier_used[1]) / 1e6);
    }

    const double traced_p50 = percentile(step_s, 0.5);
    const double plain_p50 = percentile(plain_steps, 0.5);
    std::vector<Metric> out = {
        { "trace.overhead", traced_p50 * 1e3 / plain_p50, "ratio" },
        { "trace.step_s", traced_p50, "s/step" },
        { "executor.self_s", percentile(self_s, 0.5), "s/step" },
        { "executor.step_ms.p50", plain_p50, "ms" },
        { "executor.step_ms.p90", percentile(plain_steps, 0.9), "ms" },
        { "policy.alloc_s", percentile(alloc_s, 0.5), "s/step" },
        { "policy.layer_s", percentile(layer_s, 0.5), "s/step" },
        { "policy.access_s", percentile(access_s, 0.5), "s/step" },
        { "policy.free_s", percentile(free_s, 0.5), "s/step" },
        { "policy.step_s", percentile(hook_step_s, 0.5), "s/step" },
        { "policy.access_calls", perStep(access_calls, all), "count/step" },
        { "policy.unmap_calls", perStep(unmap_calls, all), "count/step" },
        { "sentinel.demand_evictions",
          perStep(static_cast<double>(t.delta.demand_evictions), n),
          "count/step" },
        { "um.demand_faults",
          perStep(static_cast<double>(t.delta.um_faults), n), "count/step" },
        { "mem.promoted_pages",
          perStep(static_cast<double>(t.delta.promoted_pages), n),
          "count/step" },
        { "mem.demoted_pages",
          perStep(static_cast<double>(t.delta.demoted_pages), n),
          "count/step" },
    };
    for (int l = 0; l < 2; ++l)
        for (int d = 0; d < 2; ++d) {
            std::string p =
                strprintf("chan.link%d.%s.", l, d == 0 ? "up" : "down");
            out.push_back(
                { p + "transfers",
                  perStep(static_cast<double>(t.delta.transfers[l][d]), n),
                  "count/step" });
            out.push_back(
                { p + "busy_frac",
                  window > 0.0
                      ? static_cast<double>(t.delta.busy[l][d]) / window
                      : 0.0,
                  "ratio" });
        }
    out.insert(out.end(),
               {
                   { "attr.execution_ms",
                     attrMs(telemetry::AttrComponent::Execution), "sim_ms" },
                   { "attr.exposed_ms",
                     attrMs(telemetry::AttrComponent::Exposed), "sim_ms" },
                   { "attr.alloc_ms", attrMs(telemetry::AttrComponent::Alloc),
                     "sim_ms" },
                   { "attr.policy_ms",
                     attrMs(telemetry::AttrComponent::Policy), "sim_ms" },
                   { "mem.peak_fast_mb", peak_fast, "MB" },
                   { "mem.peak_mid_mb", peak_mid, "MB" },
                   { "models.build_s", percentile(build, 0.5), "s" },
                   { "profile.run_s", percentile(profile, 0.5), "s" },
               });
    return out;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seconds S --trace 0|1\n"
                 "                 [--seed N] [--steps S --warmup W]\n"
                 "workloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    double seconds = -1.0;
    int trace = -1;
    int steps = 9, warmup = 6; // sentinel-cli run's defaults
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string a = argv[i], v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seconds")
            seconds = std::atof(v.c_str());
        else if (a == "--trace")
            trace = std::atoi(v.c_str());
        else if (a == "--steps")
            steps = std::atoi(v.c_str());
        else if (a == "--warmup")
            warmup = std::atoi(v.c_str());
        else if (a != "--seed") { // the cells are fixed; no RNG to seed
            usage();
            return 2;
        }
    }
    const Workload *w = findWorkload(workload);
    if (!w || seconds < 0.0 || (trace != 0 && trace != 1) || warmup < 0 ||
        warmup >= steps || (argc % 2) != 1) {
        usage();
        return 2;
    }

    // Plain mode: plain reps only.  Traced mode: plain and traced reps
    // alternate, so both see the same machine conditions.
    const int min_reps = 3;
    std::vector<Rep> plain, traced;
    int attempted = 0, failed = 0;
    std::string first_failure;
    const Clock::time_point start = Clock::now();
    while (attempted < min_reps || secondsSince(start) < seconds) {
        bool tr = trace == 1 && attempted % 2 == 1;
        Rep r;
        try {
            r = runRep(*w, steps, warmup, tr);
        } catch (const std::exception &e) {
            r.ok = false;
            r.why = e.what();
        }
        ++attempted;
        const std::vector<Rep> &ref = !plain.empty() ? plain : traced;
        if (r.ok && !ref.empty() && !sameStats(r.stats, ref.front().stats)) {
            r.ok = false;
            r.why = tr ? "traced StepStats differ from the plain run's"
                       : "StepStats differ between identical runs";
        }
        if (!r.ok) {
            ++failed;
            if (first_failure.empty())
                first_failure = r.why;
            continue;
        }
        (tr ? traced : plain).push_back(std::move(r));
    }

    std::fprintf(stderr, "perfbench: %s, %d reps (%zu plain, %zu traced)\n",
                 w->name, attempted, plain.size(), traced.size());
    if (failed)
        std::fprintf(stderr, "perfbench: %d failed; first: %s\n", failed,
                     first_failure.c_str());
    if (plain.empty() || (trace == 1 && traced.empty())) {
        emit({}, false, attempted, failed);
        return 0;
    }
    emit(trace == 1 ? perLayer(plain, traced) : endToEnd(plain, warmup),
         failed == 0, attempted, failed);
    return 0;
}
