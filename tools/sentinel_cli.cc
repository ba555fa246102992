/**
 * @file
 * sentinel-cli: command-line driver for the reproduction.
 *
 * Subcommands:
 *   run          one (model, batch, platform, policy) cell
 *   report       stall attribution + migration decision audit for one
 *                run (per-interval breakdown, top offenders, exactness
 *                check against the run's StepStats)
 *   compare      every policy on one configuration
 *   plan         the interval planner's candidate table (Fig. 5 math)
 *                plus the offline offset map of the long-lived tensors
 *   maxbatch     max-batch search on the GPU platform (Table V cell)
 *   chaos        fault-injection degradation report (Sentinel vs. the
 *                platform baselines under a --chaos spec)
 *   fuzz         randomized campaign over the differential oracle:
 *                seeded synthetic cases through the policy matrix, or
 *                (--mode server) random multi-job co-locations; a
 *                violating case is shrunk and saved as a .sentinelrepro
 *                (exit 0 clean, 2 on violations)
 *   replay       run a .sentinelrepro fuzz case through the
 *                differential oracle (exit 0 clean, 2 on violations)
 *   serve        co-locate several training jobs on one simulated HM
 *                node: admission control, capacity quotas, and the
 *                global migration-bandwidth arbiter (src/server);
 *                --listen / --scrape-out expose the run's live
 *                observability plane (OpenMetrics + SLO burn alerts)
 *   top          per-job terminal view of a scrape: --endpoint for a
 *                live /metrics responder, --snapshot for a frame file
 *   metrics-diff compare two --metrics-out files (OpenMetrics text)
 *                sample by sample with a percent-change threshold (exit
 *                2 when a change exceeds it or a sample is added or
 *                removed, 1 when a file does not parse)
 *   models       list the model zoo
 *
 * Examples:
 *   sentinel-cli run --model resnet32 --batch 32 --policy sentinel
 *   sentinel-cli compare --model bert_large --fraction 0.2
 *   sentinel-cli plan --model resnet32 --batch 32 --fraction 0.2
 *   sentinel-cli maxbatch --model resnet32 --policy sentinel --mem-mb 64
 *   sentinel-cli chaos --model resnet32 --chaos 'bw:step=6,factor=0.5'
 *   sentinel-cli serve --node-mb 64 \
 *       --colo 'model=resnet32 quota=0.3; model=synthetic:9 quota=0.25'
 *   sentinel-cli serve --mix 3 --seed 7 --oracle
 *   sentinel-cli fuzz --iters 200 --seed 7 --jobs 4
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hh"
#include "common/parse.hh"
#include "harness/cell.hh"
#include "harness/oracle.hh"
#include "harness/report.hh"
#include "core/interval_planner.hh"
#include "mem/hm.hh"
#include "plan/offset_planner.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "server/http.hh"
#include "server/oracle.hh"
#include "server/scrape.hh"
#include "sim/fault_injector.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/openmetrics.hh"
#include "telemetry/session.hh"

using namespace sentinel;

namespace {

/**
 * Tiny --key value / --key=value parser; expect() rejects the keys a
 * command does not read.
 */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                SENTINEL_FATAL("expected --key value pairs, got '%s'",
                               key.c_str());
            }
            std::size_t eq = key.find('=');
            if (eq != std::string::npos) {
                values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
                continue;
            }
            if (i + 1 >= argc) {
                SENTINEL_FATAL("missing value for '%s'", key.c_str());
            }
            values_[key.substr(2)] = argv[++i];
        }
    }

    std::string
    get(const std::string &key, const std::string &dflt) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? dflt : it->second;
    }

    bool
    has(const std::string &key) const
    {
        return values_.find(key) != values_.end();
    }

    /** The value of --@p key in [@p lo, @p hi] (common/parse.hh);
     *  @p dflt when the key is absent. */
    int
    getInt(const std::string &key, int dflt,
           int lo = std::numeric_limits<int>::min(),
           int hi = std::numeric_limits<int>::max()) const
    {
        return getNumber(key, dflt, lo, hi, parseInt<int>);
    }

    double
    getDouble(const std::string &key, double dflt,
              double lo = -std::numeric_limits<double>::max(),
              double hi = std::numeric_limits<double>::max()) const
    {
        return getNumber(key, dflt, lo, hi, parseReal);
    }

    /** Decimal, 0x hex or 0-prefixed octal, unsigned. */
    std::uint64_t
    getU64(const std::string &key, std::uint64_t dflt) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return dflt;
        if (std::optional<std::uint64_t> v = parseSeed(it->second))
            return *v;
        throw badNumber(key, it->second);
    }

    /**
     * ConfigError naming the first given key that is not in @p keys,
     * the keys command @p cmd reads; call it before running anything.
     */
    void
    expect(const std::string &cmd, const std::vector<std::string> &keys) const
    {
        for (const auto &kv : values_)
            if (std::find(keys.begin(), keys.end(), kv.first) == keys.end())
                throw harness::ConfigError(
                    strprintf("config: %s does not take --%s", cmd.c_str(),
                              kv.first.c_str()));
    }

  private:
    template <class T>
    T
    getNumber(const std::string &key, T dflt, T lo, T hi,
              std::optional<T> (*read)(std::string_view, T, T)) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return dflt;
        const std::string &v = it->second;
        if (std::optional<T> out = read(v, lo, hi))
            return *out;
        throw harness::ConfigError("config: --" + key + " " +
                                   readError(v, lo, hi));
    }

    static harness::ConfigError
    badNumber(const std::string &key, const std::string &v)
    {
        return harness::ConfigError(strprintf(
            "config: --%s expects a number, got '%s'", key.c_str(),
            v.c_str()));
    }

    std::map<std::string, std::string> values_;
};

/** --platform: cpu (the Optane server) or gpu. */
harness::Platform
platformFrom(const Args &args)
{
    const std::string p = args.get("platform", "cpu");
    if (p != "cpu" && p != "gpu")
        throw harness::ConfigError(strprintf(
            "config: --platform wants cpu or gpu, got '%s'", p.c_str()));
    return p == "gpu" ? harness::Platform::Gpu : harness::Platform::Optane;
}

/** --ring-capacity: the events a telemetry ring holds, 1..2^24 (a
 *  512 MiB ring of 32-byte events), checked before anything runs. */
std::size_t
ringCapacity(const Args &args)
{
    return static_cast<std::size_t>(
        args.getInt("ring-capacity", 1 << 18, 1, 1 << 24));
}

/** The keys configFrom() reads. */
const std::vector<std::string> kConfigKeys = {
    "model", "batch", "platform", "fraction", "mem-mb", "tiers",
    "mid-capacity", "mid-bw", "steps", "warmup", "mil", "planner",
    "chaos", "chaos-seed",
};

harness::ExperimentConfig
configFrom(const Args &args)
{
    harness::ExperimentConfig cfg;
    cfg.model = args.get("model", "resnet32");
    // Models outside the zoo (resnet20 and friends) have no registered
    // spec; they still build via makeModel, so default their batch.
    const models::ModelSpec *spec = models::findModelSpec(cfg.model);
    cfg.batch = args.getInt("batch", spec ? spec->small_batch : 32);
    cfg.platform = platformFrom(args);
    // The fast tier is fraction x peak bytes, cast to an integer.
    cfg.fast_fraction = args.getDouble("fraction", 0.2, 0.0, 1e6);
    int mem_mb = args.getInt("mem-mb", 0, 0);
    if (mem_mb > 0)
        cfg.fast_bytes = static_cast<std::uint64_t>(mem_mb) << 20;
    cfg.tiers = args.getInt("tiers", 2);
    int mid_mb = args.getInt("mid-capacity", 0, 0);
    if (mid_mb > 0)
        cfg.mid_bytes = static_cast<std::uint64_t>(mid_mb) << 20;
    cfg.mid_bw = args.getDouble("mid-bw", 0.0) * 1e9; // GB/s -> B/s
    cfg.steps = args.getInt("steps", 9);
    cfg.warmup = args.getInt("warmup", 6);
    cfg.sentinel.forced_mil = args.getInt("mil", 0, 0);
    cfg.planner = args.get("planner", "greedy");
    cfg.chaos = args.get("chaos", "");
    cfg.chaos_seed = args.getU64("chaos-seed", cfg.chaos_seed);
    return cfg;
}

void
printMetrics(const harness::Metrics &m)
{
    if (!m.supported) {
        std::printf("%-12s unsupported on this graph\n",
                    m.policy.c_str());
        return;
    }
    std::printf("%-12s %10.2f ms/step %10.1f samples/s  exposed "
                "%8.2f ms  recompute %6.2f ms  migrated %8.1f MB  "
                "slow %8.1f MB%s\n",
                m.policy.c_str(), m.step_time_ms, m.throughput,
                m.exposed_ms, m.recompute_ms, m.migrated_mb(),
                m.bytes_slow_mb, m.feasible ? "" : "  [INFEASIBLE]");
}

/**
 * Labeler for traces produced by the run command: ops and prefetch
 * targets get their graph names instead of bare ids.
 */
telemetry::EventLabeler
graphLabeler(const df::Graph &g)
{
    return [&g](const telemetry::Event &e) -> std::string {
        switch (e.type) {
          case telemetry::EventType::OpBegin:
          case telemetry::EventType::OpEnd:
            if (e.id < g.numOps())
                return g.op(e.id).name;
            break;
          case telemetry::EventType::PrefetchIssued:
            if (e.id < g.numTensors())
                return "prefetch " + g.tensor(e.id).name;
            break;
          default:
            break;
        }
        return {};
    };
}

int
cmdRun(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    std::string policy = args.get("policy", "sentinel");
    std::string trace_out = args.get("trace-out", "");
    std::string metrics_out = args.get("metrics-out", "");
    const std::size_t ring_capacity = ringCapacity(args);

    std::optional<telemetry::Session> session;
    if (!trace_out.empty() || !metrics_out.empty()) {
        telemetry::TelemetryConfig tcfg;
        tcfg.ring_capacity = ring_capacity;
        session.emplace(tcfg);
        cfg.telemetry = &*session;
    }

    harness::Metrics m = harness::runExperiment(cfg, policy);
    printMetrics(m);
    if (m.mil > 0) {
        std::printf("sentinel: MIL=%d pool=%.1fMB case3=%d trials=%d\n",
                    m.mil, m.pool_mb, m.case3_events, m.trial_steps);
        if (m.divergence_events > 0 || m.replans > 0 || !m.trial_decided)
            std::printf("sentinel: divergence=%d replans=%d trial=%s\n",
                        m.divergence_events, m.replans,
                        m.trial_state.c_str());
    }

    if (session) {
        session->syncDropCounter();
        // Rebuild the (deterministic) graph to resolve op/tensor names.
        df::Graph g = models::makeModel(cfg.model, cfg.batch);
        if (!trace_out.empty()) {
            telemetry::ChromeTraceOptions topts;
            topts.labeler = graphLabeler(g);
            if (!telemetry::saveChromeTrace(session->events(), trace_out,
                                            topts))
                SENTINEL_FATAL("could not write '%s'", trace_out.c_str());
            std::printf("trace written to %s (%zu events, %llu dropped); "
                        "open in https://ui.perfetto.dev\n",
                        trace_out.c_str(), session->events().size(),
                        static_cast<unsigned long long>(
                            session->events().dropped()));
        }
        if (!metrics_out.empty()) {
            std::ofstream os(metrics_out, std::ios::binary);
            telemetry::writeOpenMetrics(session->metrics(), os);
            telemetry::omWriteEof(os);
            if (!os)
                SENTINEL_FATAL("could not write '%s'",
                               metrics_out.c_str());
            std::printf("metrics written to %s\n", metrics_out.c_str());
        }
    }
    return 0;
}

int
cmdReport(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    std::string policy = args.get("policy", "sentinel");
    std::string report_out = args.get("report-out", "");
    std::string trace_out = args.get("trace-out", "");
    const bool want_history = args.has("tensor");
    const std::uint64_t tensor = args.getU64("tensor", 0);

    harness::ReportOptions ropts;
    ropts.top_k = args.getInt("top", 5, 0);

    telemetry::AttributionEngine attr;
    telemetry::AuditLog audit;
    cfg.attribution = &attr;
    cfg.audit = &audit;

    // A telemetry session rides along so the attribution can be
    // cross-checked against the raw event stream (and exported with
    // the audit reasons joined in when --trace-out is given).
    telemetry::TelemetryConfig tcfg;
    tcfg.ring_capacity = ringCapacity(args);
    telemetry::Session session(tcfg);
    cfg.telemetry = &session;

    // The graph comes first so a bad --tensor costs no run.
    df::Graph g = harness::buildGraph(cfg);
    if (want_history && tensor >= g.numTensors())
        throw harness::ConfigError(strprintf(
            "config: --tensor %llu is not a tensor of %s (it has %zu)",
            static_cast<unsigned long long>(tensor), cfg.model.c_str(),
            g.numTensors()));

    harness::StepTrace tr = harness::runExperimentSteps(cfg, policy);
    if (!tr.metrics.supported) {
        std::printf("%s unsupported on %s; nothing to attribute\n",
                    policy.c_str(), cfg.model.c_str());
        return 1;
    }
    session.syncDropCounter();

    printMetrics(tr.metrics);
    std::printf("\n%s",
                harness::buildStallReport(g, attr, audit, ropts).c_str());

    std::string why;
    if (!attr.crossCheckEvents(session.events(), &why))
        std::printf("event cross-check FAILED: %s\n", why.c_str());
    else if (!why.empty())
        std::printf("event cross-check: %s\n", why.c_str());

    if (want_history)
        std::printf("\n%s",
                    harness::auditHistory(
                        g, audit, static_cast<std::uint32_t>(tensor))
                        .c_str());

    if (!report_out.empty()) {
        std::ofstream os(report_out, std::ios::binary);
        if (!os)
            SENTINEL_FATAL("could not write '%s'", report_out.c_str());
        os << harness::stallReportJson(g, attr, audit, ropts);
        std::printf("report written to %s\n", report_out.c_str());
    }
    if (!trace_out.empty()) {
        telemetry::ChromeTraceOptions topts;
        topts.labeler = graphLabeler(g);
        topts.audit = &audit;
        topts.process_label = cfg.model + " [" + policy + "]";
        if (!telemetry::saveChromeTrace(session.events(), trace_out,
                                        topts))
            SENTINEL_FATAL("could not write '%s'", trace_out.c_str());
        std::printf("trace written to %s (%zu events, %llu dropped)\n",
                    trace_out.c_str(), session.events().size(),
                    static_cast<unsigned long long>(
                        session.events().dropped()));
    }
    return 0;
}

int
cmdCompare(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    int jobs = args.getInt("jobs", 1, 1);
    const auto &policies = cfg.platform == harness::Platform::Gpu
                               ? harness::gpuPolicies()
                               : harness::cpuPolicies();
    std::vector<harness::SweepCell> cells;
    for (const std::string &p : policies)
        cells.push_back({ cfg, p });
    for (const auto &m : harness::runSweep(cells, jobs))
        printMetrics(m);
    return 0;
}

int
cmdPlan(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    harness::Cell cell(cfg, "sentinel");
    const df::Graph &g = cell.graph();
    const core::RuntimeConfig &rc = cell.platform();
    std::uint64_t fast = rc.fast.capacity;

    core::PlannerInputs in;
    in.db = &cell.profile()->db;
    in.fast_capacity = fast;
    in.promote_bw = rc.migration.promote_bw;
    in.fast_read_bw = rc.fast.read_bw;
    in.slow_read_bw = rc.slow.read_bw;
    core::IntervalPlanner planner(in);
    auto result = planner.plan(fast * 3 / 5);

    Table t(strprintf("Planner candidates (%s, batch %d, S=%.1f MB, "
                      "RS=%.1f MB)",
                      cfg.model.c_str(), cfg.batch,
                      static_cast<double>(fast) / 1e6,
                      static_cast<double>(result.rs_bytes) / 1e6),
            { "MIL", "feasible", "max prefetch (MB)",
              "max working set (MB)", "est exposed (ms)",
              "Eq.2 (ms)", "chosen" });
    for (const auto &c : result.candidates) {
        t.row()
            .cell(c.mil)
            .cell(c.feasible ? "yes" : "no")
            .cell(static_cast<double>(c.max_prefetch) / 1e6, 1)
            .cell(static_cast<double>(c.max_working_set) / 1e6, 1)
            .cell(toMillis(c.est_exposed), 3)
            .cell(c.eq2_objective * 1e3, 3)
            .cell(c.mil == result.best.mil ? "<==" : "");
    }
    t.print(std::cout);

    // Offline offset assignment over the long-lived set — the tensors
    // Sentinel's co-allocation step lays out (`run --planner interval`
    // adopts exactly this map).
    std::string sname = args.get("solver", "greedy");
    if (sname != "greedy" && sname != "exhaustive") {
        std::fprintf(stderr,
                     "plan: unknown --solver '%s' (want greedy or "
                     "exhaustive)\n",
                     sname.c_str());
        return 1;
    }
    plan::Solver solver = sname == "exhaustive"
                              ? plan::Solver::Exhaustive
                              : plan::Solver::Greedy;
    std::vector<plan::PlanTensor> pts =
        plan::tensorsFromGraph(g, /*include_preallocated=*/false,
                               /*long_lived_only=*/true);
    plan::OffsetPlan layout = plan::assignOffsets(pts, solver);

    std::vector<std::size_t> order(pts.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (layout.offsets[a] != layout.offsets[b])
                      return layout.offsets[a] < layout.offsets[b];
                  return pts[a].id < pts[b].id;
              });
    std::size_t top = static_cast<std::size_t>(args.getInt("top", 32, 0));
    Table m(strprintf("Offset map (%zu long-lived tensors, solver=%s)",
                      pts.size(), plan::solverName(layout.solver)),
            { "offset (KB)", "bytes (KB)", "first op", "last op",
              "tensor" });
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
        const plan::PlanTensor &pt = pts[order[i]];
        m.row()
            .cell(static_cast<double>(layout.offsets[order[i]]) / 1e3, 1)
            .cell(static_cast<double>(pt.bytes) / 1e3, 1)
            .cell(pt.first)
            .cell(pt.last)
            .cell(g.tensor(pt.id).name);
    }
    m.print(std::cout);
    if (pts.size() > top)
        std::printf("... %zu more tensors (--top N to widen)\n",
                    pts.size() - top);
    std::printf("layout: footprint %.2f MB, live peak %.2f MB, "
                "fragmentation %.1f%%\n",
                static_cast<double>(layout.footprint) / 1e6,
                static_cast<double>(layout.live_peak) / 1e6,
                layout.fragmentation() * 100.0);
    return 0;
}

int
cmdMaxBatch(const Args &args)
{
    std::string model = args.get("model", "resnet32");
    std::string policy = args.get("policy", "sentinel");
    int mem_mb = args.getInt("mem-mb", 0, 0);
    std::uint64_t dev;
    if (mem_mb > 0) {
        dev = static_cast<std::uint64_t>(mem_mb) << 20;
    } else {
        df::Graph g = models::makeModel(
            model, models::modelSpec(model).small_batch);
        dev = mem::roundUpToPages(g.peakMemoryBytes() / 2);
    }
    int cap = args.getInt("cap", 1024);
    int jobs = args.getInt("jobs", 1, 1);
    int b = harness::maxBatchSearch(model, policy, dev, cap, jobs);
    std::printf("%s with %s on %.1f MB of device memory: max batch %d\n",
                model.c_str(), policy.c_str(),
                static_cast<double>(dev) / 1e6, b);
    return 0;
}

int
cmdProfile(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    std::string out = args.get("out", "");
    std::string in = args.get("in", "");

    if (!in.empty()) {
        // Reuse a persisted profile: plan and train without the
        // instrumented step.
        prof::ProfileDatabase db = prof::loadProfile(in);
        harness::Cell cell(cfg, "sentinel", &db);
        auto stats = cell.executor().run(cfg.steps);
        std::printf("trained %d steps from persisted profile: %.2f "
                    "ms/step steady (MIL=%d)\n",
                    cfg.steps, toMillis(stats.back().step_time),
                    cell.sentinel()->migrationPlan().mil);
        return 0;
    }

    harness::Cell cell(cfg, "sentinel");
    const prof::ProfileResult &r = *cell.profile();
    std::printf("profiled %s (batch %d): %zu tensors, slowdown %.1fx, "
                "memory overhead %.2f%%\n",
                cfg.model.c_str(), cfg.batch, r.db.numTensors(),
                r.profilingSlowdown(), 100.0 * r.memoryOverhead());
    if (!out.empty()) {
        if (!prof::saveProfile(r.db, out))
            SENTINEL_FATAL("could not write '%s'", out.c_str());
        std::printf("profile written to %s\n", out.c_str());
    }
    return 0;
}

const char *
channelName(sim::ChannelSel ch)
{
    switch (ch) {
      case sim::ChannelSel::Promote:
        return "promote";
      case sim::ChannelSel::Demote:
        return "demote";
      case sim::ChannelSel::Both:
        break;
    }
    return "both";
}

std::string
faultLabel(const sim::FaultEvent &ev)
{
    switch (ev.kind) {
      case sim::FaultKind::BwDegrade:
        return strprintf("bw x%.2g [%s]", ev.factor,
                         channelName(ev.channel));
      case sim::FaultKind::ChannelStall:
        return strprintf("stall %.3gms [%s]", toMillis(ev.duration),
                         channelName(ev.channel));
      case sim::FaultKind::CapacityShrink:
        return strprintf("fast x%.2g", ev.factor);
      case sim::FaultKind::ComputeJitter:
        return strprintf("jitter +-%.0f%%", 100.0 * ev.amplitude);
      case sim::FaultKind::TrafficDrift:
        return strprintf("traffic x%.2g", ev.factor);
    }
    return "?";
}

int
cmdChaos(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    if (cfg.chaos.empty())
        cfg.chaos = "bw:step=6,factor=0.4";
    // The report wants the trajectory on both sides of the fault, so
    // the step defaults are wider than run/compare's.
    cfg.steps = args.getInt("steps", 16);
    cfg.warmup = args.getInt("warmup", 10);

    sim::FaultSpec spec = sim::FaultSpec::parse(cfg.chaos);

    std::vector<std::string> policies =
        cfg.platform == harness::Platform::Gpu
            ? std::vector<std::string>{ "sentinel", "um", "swapadvisor" }
            : std::vector<std::string>{ "sentinel", "ial",
                                        "memory-mode" };

    std::vector<harness::StepTrace> traces;
    traces.reserve(policies.size());
    for (const auto &p : policies)
        traces.push_back(harness::runExperimentSteps(cfg, p));

    std::vector<std::string> headers = { "step", "fault" };
    for (const auto &p : policies)
        headers.push_back(p + " (ms)");
    Table t(strprintf("Degradation report (%s, batch %d, chaos '%s', "
                      "seed 0x%llx)",
                      cfg.model.c_str(), cfg.batch, cfg.chaos.c_str(),
                      static_cast<unsigned long long>(cfg.chaos_seed)),
            headers);
    for (int s = 0; s < cfg.steps; ++s) {
        std::string marks;
        for (const auto &ev : spec.events) {
            if (ev.step != s)
                continue;
            if (!marks.empty())
                marks += ", ";
            marks += faultLabel(ev);
        }
        t.row().cell(s).cell(marks);
        for (const auto &tr : traces) {
            if (s < static_cast<int>(tr.steps.size()))
                t.cell(toMillis(tr.steps[s].step_time), 2);
            else
                t.cell(tr.metrics.supported ? "oom" : "n/a");
        }
    }
    t.printWithCsv(std::cout);

    int first_fault = cfg.steps;
    for (const auto &ev : spec.events)
        first_fault = std::min(first_fault, ev.step);
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const auto &steps = traces[i].steps;
        const harness::Metrics &m = traces[i].metrics;
        if (steps.empty()) {
            std::printf("%-12s did not complete (%s)\n",
                        policies[i].c_str(),
                        m.supported ? "infeasible" : "unsupported");
            continue;
        }
        double pre = 0.0;
        if (first_fault > 0 &&
            first_fault <= static_cast<int>(steps.size()))
            pre = toMillis(steps[first_fault - 1].step_time);
        double worst = 0.0;
        for (int s = first_fault;
             s < static_cast<int>(steps.size()); ++s)
            worst = std::max(worst, toMillis(steps[s].step_time));
        double final_ms = toMillis(steps.back().step_time);
        std::printf("%-12s pre-fault %8.2f ms  worst %8.2f ms  final "
                    "%8.2f ms (%.0f%% of pre-fault)",
                    policies[i].c_str(), pre, worst, final_ms,
                    pre > 0.0 ? 100.0 * final_ms / pre : 0.0);
        if (m.mil > 0)
            std::printf("  | divergence=%d replans=%d trial=%s",
                        m.divergence_events, m.replans,
                        m.trial_state.c_str());
        std::printf("\n");
    }
    return 0;
}

int
cmdReplay(const std::string &file, const Args &args)
{
    harness::FuzzCase fc = harness::FuzzCase::load(file);
    int jobs = args.getInt("jobs", 1, 1);
    bool det = args.getInt("determinism", 1) != 0;
    harness::OracleReport rep = fc.run(jobs, det);
    std::printf("%s", rep.summary().c_str());
    return rep.ok() ? 0 : 2;
}

/** The settings of one fuzz campaign (see cmdFuzz()). */
struct FuzzOptions {
    int iters = 50;
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string out_dir = ".";
    double inject_capacity = 0.0;
    double inject_traffic = 0.0;
    bool determinism = true;
    bool do_shrink = true;
    bool keep_going = false;
    int colo_jobs = 2;              ///< jobs per server-mode co-location
    std::string planner = "greedy"; ///< sentinel layout solver
    int tiers = 0; ///< force the chain length (0 = let the case draw)
};

/** Per-iteration case seed: decorrelated from neighbours so adjacent
 *  iterations explore unrelated corners (splitmix64 finalizer). */
std::uint64_t
caseSeed(std::uint64_t campaign_seed, int iter)
{
    std::uint64_t z = campaign_seed +
                      0x9e3779b97f4a7c15ull *
                          (static_cast<std::uint64_t>(iter) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1; // synthetic seeds stay nonzero
}

/**
 * Server mode: each iteration derives a random co-location
 * (server::randomColocation) and runs it through the multi-job
 * oracle.  A violating mix is printed as a `serve --colo` spec, which
 * is its own repro (there is nothing to shrink).
 */
int
serverFuzzMode(const FuzzOptions &o)
{
    int skipped = 0;
    int failures = 0;
    for (int i = 0; i < o.iters; ++i) {
        std::uint64_t cs = caseSeed(o.seed, i);
        std::vector<server::JobSpec> specs =
            server::randomColocation(cs, o.colo_jobs);

        server::ServerConfig cfg;
        cfg.fast_bytes = 64ull << 20;
        server::ServerOracleOptions opts;
        opts.jobs = o.jobs > 1 ? o.jobs : 2;
        opts.check_determinism = o.determinism;

        harness::OracleReport rep;
        try {
            rep = server::runServerOracle(cfg, specs, opts);
        } catch (const harness::ConfigError &e) {
            ++skipped;
            std::printf("iter %d seed %llu: skipped (%s)\n", i,
                        static_cast<unsigned long long>(cs), e.what());
            continue;
        }
        if (rep.ok()) {
            std::printf("iter %d seed %llu: ok (%d jobs)\n", i,
                        static_cast<unsigned long long>(cs),
                        o.colo_jobs);
            continue;
        }

        ++failures;
        std::printf("iter %d seed %llu: VIOLATION\n%s", i,
                    static_cast<unsigned long long>(cs),
                    rep.summary().c_str());
        std::string colo;
        for (const auto &s : specs) {
            if (!colo.empty())
                colo += "; ";
            colo += s.toSpecString();
        }
        std::printf("repro: sentinel-cli serve --oracle 1 --colo '%s'\n",
                    colo.c_str());
        if (!o.keep_going)
            break;
    }
    std::printf("server fuzz campaign: %d iterations, %d skipped, %d "
                "violations\n",
                o.iters, skipped, failures);
    return failures > 0 ? 2 : 0;
}

/**
 * Policy mode: each iteration derives a FuzzCase (a synthetic:<seed>
 * model plus harness knobs) and runs it through the full policy
 * matrix.  On a violation the shrinker minimizes the case while the
 * same invariant keeps failing and saves it as a .sentinelrepro.
 */
int
fuzzMode(const FuzzOptions &o)
{
    int skipped = 0;
    int failures = 0;
    for (int i = 0; i < o.iters; ++i) {
        std::uint64_t cs = caseSeed(o.seed, i);
        harness::FuzzCase fc = harness::FuzzCase::random(cs);
        fc.planner = o.planner;
        if (o.tiers > 0)
            fc.tiers = o.tiers;
        fc.inject_capacity = o.inject_capacity;
        fc.inject_traffic = o.inject_traffic;

        harness::OracleReport rep;
        try {
            rep = fc.run(o.jobs, o.determinism);
        } catch (const harness::ConfigError &e) {
            // A rejected input, not a violated invariant: the
            // generator wandered outside the harness preconditions.
            ++skipped;
            std::printf("iter %d seed %llu: skipped (%s)\n", i,
                        static_cast<unsigned long long>(cs), e.what());
            continue;
        }
        if (rep.ok()) {
            std::printf("iter %d seed %llu: ok (%zu cells)\n", i,
                        static_cast<unsigned long long>(cs),
                        rep.cells.size());
            continue;
        }

        ++failures;
        std::printf("iter %d seed %llu: VIOLATION\n%s", i,
                    static_cast<unsigned long long>(cs),
                    rep.summary().c_str());

        harness::FuzzCase minimal = fc;
        if (o.do_shrink) {
            int runs = 0;
            minimal = harness::shrink(fc, o.jobs, &runs);
            std::printf("shrunk after %d oracle runs to:\n%s", runs,
                        minimal.serialize().c_str());
        }
        std::string path = o.out_dir + "/repro-" + std::to_string(cs) +
                           ".sentinelrepro";
        minimal.save(path);
        std::printf("repro written to %s (replay with: sentinel-cli "
                    "replay %s)\n",
                    path.c_str(), path.c_str());
        if (!o.keep_going)
            break;
    }
    std::printf("fuzz campaign: %d iterations, %d skipped, %d "
                "violations\n",
                o.iters, skipped, failures);
    return failures > 0 ? 2 : 0;
}

int
cmdFuzz(const Args &args)
{
    FuzzOptions o;
    o.iters = args.getInt("iters", o.iters, 1);
    o.seed = args.getU64("seed", o.seed);
    o.jobs = args.getInt("jobs", o.jobs, 1);
    o.out_dir = args.get("out", o.out_dir);
    // A capacity injection takes a share of the fast tier below 1, as
    // a repro file's does (FuzzCase::parse).
    o.inject_capacity = args.getDouble("inject-capacity", o.inject_capacity,
                                       0.0, std::nextafter(1.0, 0.0));
    o.inject_traffic = args.getDouble("inject-traffic", o.inject_traffic);
    o.determinism = args.getInt("determinism", 1) != 0;
    o.do_shrink = args.getInt("shrink", 1) != 0;
    o.keep_going = args.getInt("keep-going", 0) != 0;
    o.colo_jobs = args.getInt("colo-jobs", o.colo_jobs, 1);
    o.planner = args.get("planner", o.planner);
    o.tiers = args.getInt("tiers", o.tiers);
    const std::string mode = args.get("mode", "policy");

    if (o.tiers < 0)
        throw harness::ConfigError(strprintf(
            "config: --tiers must be 0 (drawn per case) or a chain "
            "length (got %d)",
            o.tiers));
    if (mode != "policy" && mode != "server")
        throw harness::ConfigError(strprintf(
            "config: --mode wants policy or server, got '%s'",
            mode.c_str()));
    if (o.planner != "greedy" && o.planner != "interval")
        throw harness::ConfigError(strprintf(
            "config: --planner wants greedy or interval, got '%s'",
            o.planner.c_str()));
    return mode == "server" ? serverFuzzMode(o) : fuzzMode(o);
}

int
cmdServe(const Args &args)
{
    server::ServerConfig cfg;
    cfg.platform = platformFrom(args);
    cfg.fast_bytes =
        static_cast<std::uint64_t>(args.getInt("node-mb", 64, 1)) << 20;
    cfg.headroom = args.getDouble("headroom", 1.0, 1.0);
    cfg.demand_fault_boost = args.getDouble("boost", 2.0);
    cfg.jobs = args.getInt("jobs", 1, 1);
    cfg.default_steps = args.getInt("steps", 12);
    cfg.default_warmup = args.getInt("warmup", 4);
    const int port = args.getInt("listen", 0, 0, 65535);
    const int count = args.getInt("listen-count", 0);

    std::string colo = args.get("colo", "");
    const int mix = args.getInt("mix", 3, 1);
    const std::uint64_t seed = args.getU64("seed", 1);
    std::vector<server::JobSpec> specs;
    if (!colo.empty()) {
        specs = server::JobSpec::parseList(colo);
    } else {
        specs = server::randomColocation(seed, mix);
        std::printf("random co-location (seed %llu):\n",
                    static_cast<unsigned long long>(seed));
        for (const auto &s : specs)
            std::printf("  %s\n", s.toSpecString().c_str());
    }

    if (args.getInt("oracle", 0) != 0) {
        server::ServerOracleOptions opts;
        opts.jobs = cfg.jobs > 1 ? cfg.jobs : 4;
        harness::OracleReport rep =
            server::runServerOracle(cfg, specs, opts);
        std::printf("%s", rep.summary().c_str());
        return rep.ok() ? 0 : 2;
    }

    // The live observability plane: --scrape-out streams deterministic
    // OpenMetrics frames, --listen serves the final exposition over
    // HTTP (for `sentinel-cli top --endpoint` and curl).
    std::string scrape_out = args.get("scrape-out", "");
    bool listen = args.has("listen");
    bool want_obs = !scrape_out.empty() || listen ||
                    args.getInt("obs", 0) != 0;

    server::ScrapeConfig scfg;
    scfg.slo.target_factor = args.getDouble("slo-target", 1.5);
    scfg.slo.error_budget = args.getDouble("slo-budget", 0.1);
    scfg.slo.burn_threshold = args.getDouble("burn-threshold", 2.0);
    scfg.slo.window =
        static_cast<std::size_t>(args.getInt("burn-window", 16, 1));
    scfg.snapshot_every = args.getInt("scrape-every", 4);

    std::optional<telemetry::Session> session;
    telemetry::AuditLog audit;
    std::optional<std::ofstream> snap;
    std::optional<server::ObservabilityPlane> obs;
    if (want_obs) {
        session.emplace();
        if (!scrape_out.empty()) {
            snap.emplace(scrape_out, std::ios::binary);
            if (!*snap)
                SENTINEL_FATAL("could not write '%s'",
                               scrape_out.c_str());
        }
        obs.emplace(scfg, &*session, &audit,
                    snap ? &*snap : nullptr);
        cfg.obs = &*obs;
        cfg.telemetry = &*session;
    }

    server::ServerResult r = server::runServer(cfg, specs);
    std::printf("%s", r.summary().c_str());

    if (obs) {
        std::printf("observability: %llu SLO burn alert(s), %llu "
                    "violation step(s)\n",
                    static_cast<unsigned long long>(obs->alerts()),
                    [&] {
                        unsigned long long v = 0;
                        for (std::size_t j = 0; j < obs->numJobs(); ++j)
                            v += obs->job(j).violations;
                        return v;
                    }());
        if (!scrape_out.empty())
            std::printf("scrape: %d frame(s) written to %s\n",
                        obs->snapshots(), scrape_out.c_str());
    }

    if (listen) {
        server::MetricsHttpServer http;
        if (!http.listen(port))
            SENTINEL_FATAL("%s", http.error().c_str());
        // The body is rendered per request so the endpoint always
        // reflects the (final, settled) plane state.
        std::printf("serving /metrics on http://127.0.0.1:%d%s\n",
                    http.port(),
                    count > 0
                        ? strprintf(" for %d request(s)", count).c_str()
                        : " (ctrl-c to stop)");
        std::fflush(stdout);
        http.serve([&] { return obs->renderString(); }, count);
    }
    return 0;
}

/** The whole of @p path; std::runtime_error when it cannot be read. */
std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error(
            strprintf("could not read '%s'", path.c_str()));
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/**
 * The frames of OpenMetrics @p text: one for a scrape or a `run
 * --metrics-out` file, several for a `serve --scrape-out` snapshot.
 * std::runtime_error naming @p source when there is none.
 */
std::vector<std::string>
scrapeFrames(const std::string &text, const std::string &source)
{
    std::vector<std::string> frames = telemetry::splitScrapeFrames(text);
    if (frames.empty())
        throw std::runtime_error(
            strprintf("%s: no OpenMetrics frame found (missing '# EOF')",
                      source.c_str()));
    return frames;
}

/** One frame's samples, parsed strictly; std::runtime_error naming
 *  @p source and the first bad line. */
std::vector<telemetry::OmSample>
parseFrame(const std::string &frame, const std::string &source)
{
    std::vector<telemetry::OmSample> samples;
    std::string err;
    if (!telemetry::parseOpenMetrics(frame, samples, &err))
        throw std::runtime_error(strprintf(
            "%s: bad exposition: %s", source.c_str(), err.c_str()));
    return samples;
}

int
cmdTop(const Args &args)
{
    std::string endpoint = args.get("endpoint", "");
    std::string snapshot = args.get("snapshot", "");
    if (endpoint.empty() == snapshot.empty())
        SENTINEL_FATAL(
            "top needs exactly one of --endpoint HOST:PORT or "
            "--snapshot FILE");

    std::string text;
    if (!endpoint.empty()) {
        // The port must parse in full as 1..65535.
        const std::size_t colon = endpoint.rfind(':');
        const std::optional<int> port =
            colon == std::string::npos
                ? std::nullopt
                : parseInt(std::string_view(endpoint).substr(colon + 1), 1,
                           65535);
        if (!port)
            throw harness::ConfigError(
                strprintf("config: --endpoint wants HOST:PORT, got '%s'",
                          endpoint.c_str()));
        std::string host = endpoint.substr(0, colon);
        std::string err;
        if (!server::httpGet(host, *port, "/metrics", text, &err))
            SENTINEL_FATAL("scrape failed: %s", err.c_str());
    } else {
        text = readFile(snapshot);
    }

    // A snapshot file holds a sequence of frames; default to the most
    // recent, --frame K (1-based) rewinds.
    const std::string &source = endpoint.empty() ? snapshot : endpoint;
    std::vector<std::string> frames = scrapeFrames(text, source);
    int frame = args.getInt("frame", static_cast<int>(frames.size()));
    if (frame < 1 || frame > static_cast<int>(frames.size()))
        SENTINEL_FATAL("--frame %d out of range (1..%zu)", frame,
                       frames.size());

    std::vector<telemetry::OmSample> samples = parseFrame(
        frames[static_cast<std::size_t>(frame - 1)], source);
    if (frames.size() > 1)
        std::printf("frame %d of %zu\n", frame, frames.size());
    std::printf("%s", server::renderTopFrame(samples).c_str());
    return 0;
}

int
cmdMetricsDiff(const std::string &file_a, const std::string &file_b,
               const Args &args)
{
    double threshold = args.getDouble("threshold", 10.0);
    // The last frame of each file, read the way `top --snapshot` reads.
    auto load = [](const std::string &path) {
        return parseFrame(scrapeFrames(readFile(path), path).back(), path);
    };
    std::vector<telemetry::OmSample> a = load(file_a);
    std::vector<telemetry::OmSample> b = load(file_b);
    std::vector<telemetry::OmDiffRow> rows =
        telemetry::diffSamples(a, b, threshold);
    if (rows.empty()) {
        std::printf("no differences (%zu samples compared)\n", a.size());
        return 0;
    }

    auto value = [](std::optional<double> v) {
        return v ? telemetry::omFormatValue(*v) : "missing";
    };
    Table t(strprintf("metrics diff: %s -> %s (threshold %.1f%%)",
                      file_a.c_str(), file_b.c_str(), threshold),
            { "sample", "a", "b", "change_pct", "flag" });
    int flagged = 0;
    for (const telemetry::OmDiffRow &r : rows) {
        t.row().cell(r.key).cell(value(r.a)).cell(value(r.b));
        if (r.a && r.b)
            t.cell(r.change_pct, 1).cell(r.flagged ? "OVER" : "");
        else
            t.cell("-").cell(r.a ? "REMOVED" : "ADDED");
        flagged += r.flagged;
    }
    t.print(std::cout);
    std::printf("%d flagged difference(s)%s\n", flagged,
                flagged ? "" : " above threshold");
    return flagged ? 2 : 0;
}

int
cmdModels()
{
    Table t("Model zoo", { "name", "small batch", "large batch",
                           "layers", "peak (small batch)" });
    for (const auto &spec : models::modelZoo()) {
        df::Graph g = models::makeModel(spec.name, spec.small_batch);
        t.row()
            .cell(spec.name)
            .cell(spec.small_batch)
            .cell(spec.large_batch)
            .cell(g.numLayers())
            .cell(formatBytes(
                static_cast<double>(g.peakMemoryBytes())));
    }
    t.print(std::cout);
    return 0;
}

void
usage()
{
    std::printf(
        "sentinel-cli <command> [--key value | --key=value ...]\n"
        "            a flag the command does not read is an error;\n"
        "            --help or -h prints this\n\n"
        "commands:\n"
        "  run       --model M --batch N --policy P [--platform "
        "cpu|gpu]\n"
        "            [--fraction F | --mem-mb M] [--steps S] [--mil K]\n"
        "            [--planner greedy|interval] (sentinel co-alloc "
        "solver)\n"
        "            [--tiers N] [--mid-capacity MB] [--mid-bw GB/s]\n"
        "            (N-tier chain; 3+ inserts middle tiers between\n"
        "             fast and slow, staged-prefetch path)\n"
        "            [--trace-out FILE.json] [--metrics-out FILE]\n"
        "            (run is the default command when the first arg\n"
        "             starts with --)\n"
        "  report    stall attribution + decision audit for one run:\n"
        "            per-interval breakdown, top stall offenders with\n"
        "            the policy decision that caused each, exactness\n"
        "            check against StepStats  [--top K] [--tensor ID]\n"
        "            [--report-out FILE.json]\n"
        "            [--trace-out FILE.json]\n"
        "  compare   same options; runs every policy of the platform\n"
        "            [--jobs N] fans the policies out over N threads\n"
        "  plan      print the interval planner's candidate table plus\n"
        "            the offline offset map of the long-lived tensors\n"
        "            (footprint / live peak / fragmentation)\n"
        "            [--solver greedy|exhaustive] [--top N]\n"
        "  maxbatch  --model M --policy P [--mem-mb M] [--cap N]\n"
        "            [--jobs N] probes the batch ladder in parallel\n"
        "  profile   run's model and platform flags [--out FILE]\n"
        "            profiles one step; --in FILE trains from a saved\n"
        "            profile instead\n"
        "  chaos     fault-injection degradation report: sentinel vs.\n"
        "            the platform baselines under --chaos SPEC, with\n"
        "            the per-step time trajectory around each fault\n"
        "  fuzz      [--iters N] [--seed S] [--jobs N] [--out DIR]\n"
        "            [--mode policy|server] [--colo-jobs N]\n"
        "            [--planner greedy|interval] [--tiers N]\n"
        "            [--inject-capacity F] [--inject-traffic F]\n"
        "            [--determinism 0|1] [--shrink 0|1] [--keep-going 0|1]\n"
        "            seeded campaign over the differential oracle: random\n"
        "            synthetic cases through the policy matrix (server:\n"
        "            random co-locations); a violation is shrunk and saved\n"
        "            to DIR as a .sentinelrepro; exit 0 clean, 2 on\n"
        "            violations\n"
        "  replay    FILE.sentinelrepro [--jobs N] [--determinism 0|1]\n"
        "            replay a fuzz case through the cross-policy\n"
        "            differential oracle; exit 0 when every invariant\n"
        "            holds, 2 on violations, 1 on a rejected config\n"
        "  serve     co-locate jobs on one simulated HM node:\n"
        "            --colo 'model=M quota=F [prio=K] [arrival-ms=T]\n"
        "                    [policy=P] [batch=B] [chaos=SPEC]; ...'\n"
        "            or --mix N --seed S for a random co-location\n"
        "            [--node-mb M] [--platform cpu|gpu] [--jobs N]\n"
        "            [--steps S] [--warmup W] [--headroom F]\n"
        "            [--boost F]; --oracle 1 re-verifies the run's\n"
        "            invariants instead (exit 2 on violations)\n"
        "            observability: [--scrape-out FILE]\n"
        "            [--scrape-every N] [--slo-target F]\n"
        "            [--slo-budget F] [--burn-threshold F]\n"
        "            [--burn-window N] [--listen PORT (0=ephemeral)]\n"
        "            [--listen-count N (0=forever)] [--obs 1]\n"
        "  top       --endpoint HOST:PORT | --snapshot FILE "
        "[--frame K]\n"
        "            render one per-job scrape frame as a table\n"
        "  metrics-diff A B [--threshold PCT]  compare two --metrics-out\n"
        "            files sample by sample; exit 2 when a sample moved\n"
        "            more than PCT percent or was added or removed, 1\n"
        "            when a file does not parse\n"
        "  models    list the model zoo\n\n"
        "fault injection: --chaos SPEC (and --chaos-seed N) perturb the\n"
        "training run of any command, e.g.\n"
        "  --chaos 'bw:step=6,factor=0.5;stall:step=8,ms=2'\n"
        "clauses: bw:step=,factor=[,ch=promote|demote|both]\n"
        "         stall:step=,ms=|us=[,ch=...]\n"
        "         shrink:step=,factor=[,tier=T]\n"
        "         jitter:step=,amp=              drift:step=,factor=\n\n"
        "telemetry: --trace-out writes a Chrome-trace JSON (load it in\n"
        "chrome://tracing or https://ui.perfetto.dev); --metrics-out\n"
        "writes counters, gauges and histograms as OpenMetrics text.\n");
}

/** A subcommand that takes only --key value options. */
struct Command {
    const char *name;
    int (*fn)(const Args &);
    std::vector<std::string> keys; ///< the keys it reads
};

std::vector<std::string>
withConfig(std::vector<std::string> keys)
{
    keys.insert(keys.end(), kConfigKeys.begin(), kConfigKeys.end());
    return keys;
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        { "run", cmdRun,
          withConfig({ "policy", "trace-out", "metrics-out",
                       "ring-capacity" }) },
        { "report", cmdReport,
          withConfig({ "policy", "report-out", "trace-out", "tensor", "top",
                       "ring-capacity" }) },
        { "compare", cmdCompare, withConfig({ "jobs" }) },
        { "plan", cmdPlan, withConfig({ "solver", "top" }) },
        { "maxbatch", cmdMaxBatch,
          { "model", "policy", "mem-mb", "cap", "jobs" } },
        { "profile", cmdProfile, withConfig({ "out", "in" }) },
        { "chaos", cmdChaos, kConfigKeys },
        { "serve", cmdServe,
          { "platform", "node-mb", "headroom", "boost", "jobs", "steps",
            "warmup", "colo", "mix", "seed", "oracle", "scrape-out",
            "listen", "obs", "slo-target", "slo-budget", "burn-threshold",
            "burn-window", "scrape-every", "listen-count" } },
        { "top", cmdTop, { "endpoint", "snapshot", "frame" } },
        { "fuzz", cmdFuzz,
          { "iters", "seed", "jobs", "out", "inject-capacity",
            "inject-traffic", "determinism", "shrink", "keep-going", "mode",
            "colo-jobs", "planner", "tiers" } },
        { "models", [](const Args &) { return cmdModels(); }, {} },
    };
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string cmd = argv[1];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h" || (i == 1 && arg == "help")) {
            usage();
            return 0;
        }
    }
    try {
        // Every flag is parsed and checked before anything runs.
        // "sentinel-cli --model resnet32 --trace-out=step.json" is
        // shorthand for the run command.
        for (const Command &c : commands()) {
            const bool shorthand =
                cmd.rfind("--", 0) == 0 && std::string(c.name) == "run";
            if (cmd != c.name && !shorthand)
                continue;
            Args args(argc, argv, shorthand ? 1 : 2);
            args.expect(c.name, c.keys);
            return c.fn(args);
        }
        if (cmd == "metrics-diff") {
            // Two positional metrics files, then --key value options.
            if (argc < 4 || std::string(argv[2]).rfind("--", 0) == 0 ||
                std::string(argv[3]).rfind("--", 0) == 0)
                SENTINEL_FATAL(
                    "metrics-diff needs two --metrics-out files: "
                    "sentinel-cli metrics-diff a.prom b.prom");
            Args dargs(argc, argv, 4);
            dargs.expect(cmd, { "threshold" });
            return cmdMetricsDiff(argv[2], argv[3], dargs);
        }
        if (cmd == "replay") {
            // The file rides as the first positional operand
            // (replay FILE [--jobs N]) or as --file FILE.
            const bool positional =
                argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0;
            Args rargs(argc, argv, positional ? 3 : 2);
            rargs.expect(cmd, { "file", "jobs", "determinism" });
            std::string file = positional ? argv[2] : rargs.get("file", "");
            if (file.empty())
                SENTINEL_FATAL("replay needs a .sentinelrepro file");
            return cmdReplay(file, rargs);
        }
    } catch (const FatalError &) {
        return 1; // fatal() has printed it
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    usage();
    return 1;
}
