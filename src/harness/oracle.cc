#include "harness/oracle.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "harness/cell.hh"
#include "models/llm.hh"
#include "models/synthetic.hh"
#include "telemetry/session.hh"

namespace sentinel::harness {

namespace {

/** Parallelism of the determinism check's comparison sweep. */
constexpr int kDetJobs = 4;

/** Telemetry ring size per cell; large enough that small fuzz graphs
 *  never drop events (drops void the audit-join check). */
constexpr std::size_t kRingCapacity = 1u << 18;

struct CellResult {
    OracleCell cell;
    std::vector<OracleViolation> violations;
};

void
addViolation(CellResult &r, const std::string &invariant,
             std::string detail)
{
    r.violations.push_back(OracleViolation{ invariant, r.cell.policy,
                                            r.cell.platform,
                                            std::move(detail) });
}

/** First differing field between two metric sets, or "". */
std::string
metricsDiff(const Metrics &a, const Metrics &b)
{
    if (a.supported != b.supported)
        return strprintf("supported %d != %d", a.supported, b.supported);
    if (a.feasible != b.feasible)
        return strprintf("feasible %d != %d", a.feasible, b.feasible);
    struct Field {
        const char *name;
        double a;
        double b;
    };
    const Field fields[] = {
        { "step_time_ms", a.step_time_ms, b.step_time_ms },
        { "step_p50_ms", a.step_p50_ms, b.step_p50_ms },
        { "step_p95_ms", a.step_p95_ms, b.step_p95_ms },
        { "step_p99_ms", a.step_p99_ms, b.step_p99_ms },
        { "throughput", a.throughput, b.throughput },
        { "exposed_ms", a.exposed_ms, b.exposed_ms },
        { "recompute_ms", a.recompute_ms, b.recompute_ms },
        { "fault_ms", a.fault_ms, b.fault_ms },
        { "promoted_mb", a.promoted_mb, b.promoted_mb },
        { "demoted_mb", a.demoted_mb, b.demoted_mb },
        { "bytes_fast_mb", a.bytes_fast_mb, b.bytes_fast_mb },
        { "bytes_slow_mb", a.bytes_slow_mb, b.bytes_slow_mb },
        { "peak_fast_mb", a.peak_fast_mb, b.peak_fast_mb },
        { "mil", double(a.mil), double(b.mil) },
        { "case3_events", double(a.case3_events),
          double(b.case3_events) },
        { "trial_steps", double(a.trial_steps), double(b.trial_steps) },
        { "pool_mb", a.pool_mb, b.pool_mb },
        { "divergence_events", double(a.divergence_events),
          double(b.divergence_events) },
        { "replans", double(a.replans), double(b.replans) },
        { "layout_mb", a.layout_mb, b.layout_mb },
    };
    for (const Field &f : fields)
        if (f.a != f.b)
            return strprintf("%s %.17g != %.17g", f.name, f.a, f.b);
    return "";
}

/** Run one instrumented (platform, policy) cell and check its local
 *  invariants.  Cross-cell invariants (traffic, determinism) are
 *  checked by the caller. */
CellResult
runCell(const ExperimentConfig &base, const df::Graph &graph,
        const std::string &policy, Platform plat, const char *plat_name,
        std::uint64_t fast_bytes, const OracleOptions &opts)
{
    CellResult r;
    r.cell.policy = policy;
    r.cell.platform = plat_name;

    ExperimentConfig cfg = base;
    cfg.platform = plat;
    // fast-only keeps its everything-fits tier when the caller did not
    // size the tier explicitly — it is the traffic reference, not a
    // capacity subject.
    bool oversized = policy == "fast-only" && base.fast_bytes == 0;
    cfg.fast_bytes = oversized ? 0 : fast_bytes;

    telemetry::Session session(telemetry::TelemetryConfig{ kRingCapacity });
    telemetry::AttributionEngine attr;
    telemetry::AuditLog audit;
    cfg.telemetry = &session;
    cfg.attribution = &attr;
    cfg.audit = &audit;

    StepTrace trace;
    try {
        trace = runExperimentSteps(cfg, policy);
    } catch (const ConfigError &) {
        throw; // precondition failure, not a violation
    } catch (const std::logic_error &e) {
        // Internal assertion: residency/accounting self-checks fired
        // (e.g. an op read a non-resident page, attribution drifted).
        addViolation(r, "internal-panic", e.what());
        return r;
    } catch (const std::runtime_error &e) {
        // runExperimentSteps maps expected OOM to infeasible; anything
        // escaping is an unclassified failure.
        addViolation(r, "run-error", e.what());
        return r;
    }

    r.cell.metrics = trace.metrics;
    r.cell.supported = trace.metrics.supported;
    r.cell.feasible = trace.metrics.feasible;
    if (!trace.metrics.supported || trace.steps.empty())
        return r; // unsupported graph or clean OOM: nothing to check
    r.cell.ran = true;

    bool injected = policy == opts.inject_policy;

    // --- traffic total (cross-checked against peers by the caller) ----
    for (const df::StepStats &s : trace.steps)
        r.cell.total_traffic += s.bytes_fast + s.bytes_slow;
    if (injected && opts.inject_traffic_skew != 0.0)
        r.cell.total_traffic = static_cast<std::uint64_t>(
            static_cast<double>(r.cell.total_traffic) *
            (1.0 + opts.inject_traffic_skew));

    // --- capacity (every chain tier) ----------------------------------
    if (!oversized) {
        std::vector<mem::TierParams> chain =
            sizePlatform(cfg, policy, graph).tierChain();
        bool violated = false;
        for (const df::StepStats &s : trace.steps) {
            for (std::size_t t = 0; t < chain.size() && !violated; ++t) {
                std::uint64_t cap = chain[t].capacity;
                if (t == 0 && injected &&
                    opts.inject_capacity_underreport > 0.0)
                    cap = static_cast<std::uint64_t>(
                        static_cast<double>(cap) *
                        (1.0 - opts.inject_capacity_underreport));
                if (s.peak_tier_used[t] > cap) {
                    addViolation(
                        r, "capacity",
                        strprintf(
                            "step %d peak %s occupancy %llu bytes > "
                            "capacity %llu bytes",
                            s.step, chain[t].name.c_str(),
                            static_cast<unsigned long long>(
                                s.peak_tier_used[t]),
                            static_cast<unsigned long long>(cap)));
                    violated = true;
                }
            }
            if (violated)
                break;
        }
    }

    // --- link conservation ---------------------------------------------
    // Each page-move charges every link its legs cross, once per leg;
    // the HM's StepStats totals charge the page once.  On a one-link
    // chain the two counts coincide exactly; on a longer chain the
    // per-link sum is bounded by [1, numLinks] legs per page.  (The
    // tick-exact per-link stall identity is enforced inside the
    // attribution engine itself and surfaces as internal-panic.)
    {
        std::uint64_t promoted = 0;
        std::uint64_t demoted = 0;
        for (const df::StepStats &s : trace.steps) {
            promoted += s.promoted_bytes;
            demoted += s.demoted_bytes;
        }
        std::uint64_t link_promoted = 0;
        std::uint64_t link_demoted = 0;
        for (const telemetry::LinkAttr &l : attr.byLink()) {
            link_promoted += l.promoted_bytes;
            link_demoted += l.demoted_bytes;
        }
        std::uint64_t links =
            cfg.tiers > 1 ? static_cast<std::uint64_t>(cfg.tiers) - 1 : 0;
        auto conserved = [links](std::uint64_t pages_bytes,
                                 std::uint64_t leg_bytes) {
            if (links <= 1)
                return leg_bytes == pages_bytes;
            return leg_bytes >= pages_bytes &&
                   leg_bytes <= links * pages_bytes;
        };
        if (cfg.tiers == 1 && (promoted != 0 || demoted != 0))
            addViolation(r, "link-conservation",
                         strprintf("single-tier chain migrated bytes "
                                   "(promoted %llu, demoted %llu)",
                                   static_cast<unsigned long long>(
                                       promoted),
                                   static_cast<unsigned long long>(
                                       demoted)));
        else if (!conserved(promoted, link_promoted) ||
                 !conserved(demoted, link_demoted))
            addViolation(
                r, "link-conservation",
                strprintf("per-link migrated bytes (promote %llu, "
                          "demote %llu) do not conserve the StepStats "
                          "totals (promote %llu, demote %llu) over %llu "
                          "links",
                          static_cast<unsigned long long>(link_promoted),
                          static_cast<unsigned long long>(link_demoted),
                          static_cast<unsigned long long>(promoted),
                          static_cast<unsigned long long>(demoted),
                          static_cast<unsigned long long>(links)));
    }

    // --- attribution exactness ----------------------------------------
    if (!attr.allExact()) {
        int bad_step = -1;
        for (const auto &s : attr.steps())
            if (!s.exact()) {
                bad_step = s.step;
                break;
            }
        addViolation(r, "attribution-exact",
                     strprintf("step %d components do not sum to its "
                               "StepStats totals",
                               bad_step));
    }
    std::string why;
    if (!attr.crossCheckEvents(session.events(), &why))
        addViolation(r, "attribution-events", why);

    // --- audit join (sentinel makes plan-level decisions) -------------
    if (policy == "sentinel" && session.events().dropped() == 0 &&
        audit.dropped() == 0) {
        int misses = 0;
        Tick first_ts = 0;
        for (const telemetry::Event &e : session.events().snapshot()) {
            bool promote = e.type == telemetry::EventType::Promotion;
            if (!promote && e.type != telemetry::EventType::Demotion)
                continue;
            if (!audit.matchMigration(e.ts, promote)) {
                if (misses++ == 0)
                    first_ts = e.ts;
            }
        }
        if (misses > 0)
            addViolation(
                r, "audit-join",
                strprintf("%d migration events without a matching "
                          "decision record (first at tick %llu)",
                          misses,
                          static_cast<unsigned long long>(first_ts)));
    }
    return r;
}

const char *
platformName(Platform p)
{
    return p == Platform::Optane ? "cpu" : "gpu";
}

} // namespace

std::string
OracleReport::summary() const
{
    std::ostringstream out;
    out << "oracle: " << cells.size() << " cells, " << violations.size()
        << " violations\n";
    for (const OracleCell &c : cells) {
        out << "  " << c.platform << "/" << c.policy << ": ";
        if (!c.supported)
            out << "unsupported";
        else if (!c.ran)
            out << "infeasible";
        else
            out << (c.feasible ? "ok" : "infeasible-metrics")
                << " traffic=" << c.total_traffic;
        out << "\n";
    }
    for (const OracleViolation &v : violations)
        out << "  [" << v.invariant << "] " << v.platform << "/"
            << v.policy << ": " << v.detail << "\n";
    return out.str();
}

OracleReport
runOracle(const ExperimentConfig &base, const OracleOptions &opts)
{
    ExperimentConfig work = base;
    work.telemetry = nullptr;
    work.attribution = nullptr;
    work.audit = nullptr;

    // Preconditions first, through the same checks every cell runs:
    // the fuzzer needs a rejected input to fail *here*, before any cell
    // runs.  Sizing as sentinel adds its reserved-pool check.
    df::Graph graph = buildGraph(work);
    std::uint64_t fast_bytes =
        sizePlatform(work, "sentinel", graph).fast.capacity;

    struct MatrixEntry {
        std::string policy;
        Platform platform;
    };
    std::vector<MatrixEntry> matrix;
    if (opts.run_cpu)
        for (const std::string &p : cpuPolicies())
            matrix.push_back({ p, Platform::Optane });
    if (opts.run_gpu)
        for (const std::string &p : gpuPolicies())
            matrix.push_back({ p, Platform::Gpu });
    SENTINEL_ASSERT(!matrix.empty(),
                    "oracle needs at least one platform enabled");

    std::vector<CellResult> results(matrix.size());
    parallelFor(matrix.size(), opts.jobs, [&](std::size_t i) {
        results[i] = runCell(work, graph, matrix[i].policy,
                             matrix[i].platform,
                             platformName(matrix[i].platform), fast_bytes,
                             opts);
    });

    OracleReport report;
    for (CellResult &r : results) {
        report.cells.push_back(r.cell);
        for (OracleViolation &v : r.violations)
            report.violations.push_back(std::move(v));
    }

    // --- traffic: policy-invariant within each platform ----------------
    for (const char *plat : { "cpu", "gpu" }) {
        const OracleCell *ref = nullptr;
        for (const OracleCell &c : report.cells)
            if (c.platform == plat && c.ran) {
                ref = &c;
                break;
            }
        if (!ref)
            continue;
        for (const OracleCell &c : report.cells) {
            if (c.platform != plat || !c.ran || &c == ref)
                continue;
            if (c.total_traffic != ref->total_traffic)
                report.violations.push_back(OracleViolation{
                    "traffic", c.policy, plat,
                    strprintf("total traffic %llu bytes != reference "
                              "%llu bytes (policy %s)",
                              static_cast<unsigned long long>(
                                  c.total_traffic),
                              static_cast<unsigned long long>(
                                  ref->total_traffic),
                              ref->policy.c_str()) });
        }
    }

    // --- determinism: instrumented serial == plain parallel sweep ------
    if (opts.check_determinism) {
        std::vector<SweepCell> sweep;
        for (const MatrixEntry &e : matrix) {
            SweepCell cell;
            cell.cfg = work;
            cell.cfg.platform = e.platform;
            bool oversized =
                e.policy == "fast-only" && work.fast_bytes == 0;
            cell.cfg.fast_bytes = oversized ? 0 : fast_bytes;
            cell.policy = e.policy;
            sweep.push_back(std::move(cell));
        }
        std::vector<Metrics> plain = runSweep(sweep, kDetJobs);
        for (std::size_t i = 0; i < matrix.size(); ++i) {
            if (!results[i].violations.empty())
                continue; // already failing; metrics are meaningless
            std::string diff =
                metricsDiff(results[i].cell.metrics, plain[i]);
            if (!diff.empty())
                report.violations.push_back(OracleViolation{
                    "determinism", matrix[i].policy,
                    platformName(matrix[i].platform),
                    strprintf("instrumented serial run disagrees with "
                              "plain --jobs %d sweep: %s",
                              kDetJobs, diff.c_str()) });
        }
    }
    return report;
}

// ---------------------------------------------------------------------------
// FuzzCase

FuzzCase
FuzzCase::random(std::uint64_t seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0x9e3779b9ull);
    FuzzCase c;
    c.model =
        "synthetic:" + std::to_string(static_cast<unsigned long long>(
                           seed == 0 ? 1 : seed));
    c.batch = 1 << rng.uniformInt(1, 3); // 2, 4, 8
    static const double fractions[] = { 0.15, 0.2, 0.3, 0.5 };
    c.fast_fraction = fractions[rng.uniformInt(0, 3)];
    c.steps = static_cast<int>(rng.uniformInt(5, 8));
    c.warmup = c.steps / 2;
    c.cpu = true;
    c.gpu = rng.bernoulli(0.35);
    // Drawn after the legacy fields so the two-tier portion of every
    // historical case seed is unchanged.
    c.tiers = rng.bernoulli(0.3) ? 3 : 2;
    return c;
}

ExperimentConfig
FuzzCase::config() const
{
    ExperimentConfig cfg;
    cfg.model = model;
    cfg.batch = batch;
    cfg.fast_fraction = fast_fraction;
    cfg.steps = steps;
    cfg.warmup = warmup;
    cfg.planner = planner;
    cfg.tiers = tiers;
    return cfg;
}

OracleOptions
FuzzCase::oracleOptions(int jobs, bool check_determinism) const
{
    OracleOptions opts;
    opts.jobs = jobs;
    opts.run_cpu = cpu;
    opts.run_gpu = gpu;
    opts.check_determinism = check_determinism;
    opts.inject_capacity_underreport = inject_capacity;
    opts.inject_traffic_skew = inject_traffic;
    opts.inject_policy = inject_policy;
    return opts;
}

OracleReport
FuzzCase::run(int jobs, bool check_determinism) const
{
    return runOracle(config(), oracleOptions(jobs, check_determinism));
}

std::string
FuzzCase::serialize() const
{
    std::ostringstream out;
    out << "# sentinelrepro v1\n";
    out << "model=" << model << "\n";
    out << "batch=" << batch << "\n";
    out << strprintf("fraction=%.17g\n", fast_fraction);
    out << "steps=" << steps << "\n";
    out << "warmup=" << warmup << "\n";
    out << "cpu=" << (cpu ? 1 : 0) << "\n";
    out << "gpu=" << (gpu ? 1 : 0) << "\n";
    out << "planner=" << planner << "\n";
    out << "tiers=" << tiers << "\n";
    out << strprintf("inject_capacity=%.17g\n", inject_capacity);
    out << strprintf("inject_traffic=%.17g\n", inject_traffic);
    out << "inject_policy=" << inject_policy << "\n";
    return out.str();
}

FuzzCase
FuzzCase::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    bool magic = false;
    FuzzCase c;
    bool have_model = false;

    // Each value's range is checked below, once the whole case is in.
    auto want_int = [](const std::string &k, const std::string &v) {
        const std::optional<int> n =
            parseInt(v, std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max());
        if (!n)
            throw ConfigError(strprintf(
                "sentinelrepro: bad integer for %s: '%s'", k.c_str(),
                v.c_str()));
        return *n;
    };
    auto want_double = [](const std::string &k, const std::string &v) {
        const std::optional<double> d =
            parseReal(v, -std::numeric_limits<double>::max(),
                      std::numeric_limits<double>::max());
        if (!d)
            throw ConfigError(strprintf(
                "sentinelrepro: bad number for %s: '%s'", k.c_str(),
                v.c_str()));
        return *d;
    };
    auto want_bool = [](const std::string &k, const std::string &v) {
        if (v == "0")
            return false;
        if (v == "1")
            return true;
        throw ConfigError(strprintf(
            "sentinelrepro: bad flag for %s: '%s' (want 0 or 1)",
            k.c_str(), v.c_str()));
    };

    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '#') {
            if (line.rfind("# sentinelrepro v1", 0) == 0)
                magic = true;
            continue;
        }
        if (!magic)
            throw ConfigError("sentinelrepro: missing '# sentinelrepro "
                              "v1' header before first entry");
        std::size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ConfigError(strprintf(
                "sentinelrepro: malformed line '%s'", line.c_str()));
        std::string key = line.substr(0, eq);
        std::string value = line.substr(eq + 1);
        if (key == "model") {
            c.model = value;
            have_model = true;
        } else if (key == "batch") {
            c.batch = want_int(key, value);
        } else if (key == "fraction") {
            c.fast_fraction = want_double(key, value);
        } else if (key == "steps") {
            c.steps = want_int(key, value);
        } else if (key == "warmup") {
            c.warmup = want_int(key, value);
        } else if (key == "cpu") {
            c.cpu = want_bool(key, value);
        } else if (key == "gpu") {
            c.gpu = want_bool(key, value);
        } else if (key == "planner") {
            c.planner = value;
        } else if (key == "tiers") {
            c.tiers = want_int(key, value);
        } else if (key == "inject_capacity") {
            c.inject_capacity = want_double(key, value);
        } else if (key == "inject_traffic") {
            c.inject_traffic = want_double(key, value);
        } else if (key == "inject_policy") {
            c.inject_policy = value;
        } else {
            throw ConfigError(strprintf(
                "sentinelrepro: unknown key '%s'", key.c_str()));
        }
    }
    if (!magic)
        throw ConfigError("sentinelrepro: empty file (no header)");
    if (!have_model || c.model.empty())
        throw ConfigError("sentinelrepro: missing model=");
    if (models::isSyntheticName(c.model) &&
        !models::tryParseSyntheticName(c.model))
        throw ConfigError(strprintf(
            "sentinelrepro: malformed synthetic model name '%s'",
            c.model.c_str()));
    if (models::isLlmName(c.model) && !models::tryParseLlmName(c.model))
        throw ConfigError(strprintf(
            "sentinelrepro: malformed llm model name '%s'",
            c.model.c_str()));
    if (c.batch < 1 || c.steps < 1 || c.warmup < 0 ||
        c.warmup >= c.steps)
        throw ConfigError(strprintf(
            "sentinelrepro: invalid run shape (batch %d, steps %d, "
            "warmup %d)",
            c.batch, c.steps, c.warmup));
    // A replay builds the whole graph and every step's stats up front:
    // bound both far above anything the fuzzer writes (<= 8 each; the
    // shrinker only lowers them) so a hostile file cannot exhaust
    // memory.
    if (c.batch > kMaxBatch || c.steps > kMaxSteps)
        throw ConfigError(strprintf(
            "sentinelrepro: run shape too large (batch %d, max %d; "
            "steps %d, max %d)",
            c.batch, kMaxBatch, c.steps, kMaxSteps));
    // Range checks are written so that NaN fails them.
    if (!(0.0 < c.fast_fraction && c.fast_fraction <= 1.5))
        throw ConfigError(strprintf(
            "sentinelrepro: fraction %g out of range (0, 1.5]",
            c.fast_fraction));
    if (c.planner != "greedy" && c.planner != "interval")
        throw ConfigError(strprintf(
            "sentinelrepro: planner '%s' (want greedy or interval)",
            c.planner.c_str()));
    if (c.tiers < 1 || c.tiers > static_cast<int>(mem::kMaxTiers))
        throw ConfigError(strprintf(
            "sentinelrepro: tiers %d out of range [1, %d]", c.tiers,
            static_cast<int>(mem::kMaxTiers)));
    if (!(0.0 <= c.inject_capacity && c.inject_capacity < 1.0) ||
        !(-0.9 <= c.inject_traffic && c.inject_traffic <= 10.0))
        throw ConfigError("sentinelrepro: injection knob out of range");
    if (!c.cpu && !c.gpu)
        throw ConfigError(
            "sentinelrepro: at least one of cpu/gpu must be 1");
    return c;
}

void
FuzzCase::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw ConfigError(
            strprintf("cannot write '%s'", path.c_str()));
    out << serialize();
    out.flush();
    if (!out)
        throw ConfigError(
            strprintf("short write to '%s'", path.c_str()));
}

FuzzCase
FuzzCase::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError(
            strprintf("cannot read '%s'", path.c_str()));
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

// ---------------------------------------------------------------------------
// Shrinker

namespace {

/** Rewrite the case's synthetic model via @p fn; false when the model
 *  is not synthetic or @p fn made no change. */
bool
mutateModel(FuzzCase &c,
            const std::function<bool(models::SyntheticParams &)> &fn)
{
    std::optional<models::SyntheticParams> p =
        models::tryParseSyntheticName(c.model);
    if (!p)
        return false;
    if (!fn(*p))
        return false;
    c.model = p->toName();
    return true;
}

using Transform = std::function<bool(FuzzCase &)>;

/** Ordered transform list: model structure first (largest wins), then
 *  run shape, then the platform matrix.  Order is part of the
 *  shrinker's determinism contract. */
const std::vector<Transform> &
transforms()
{
    using models::SyntheticParams;
    static const std::vector<Transform> list = {
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.conv_units == 0 ||
                    p.conv_units / 2 + p.mlp_units < 1)
                    return false;
                p.conv_units /= 2;
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.mlp_units == 0 ||
                    p.conv_units + p.mlp_units / 2 < 1)
                    return false;
                p.mlp_units /= 2;
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.branch_prob == 0.0)
                    return false;
                p.branch_prob = 0.0;
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.temps_per_op == 0)
                    return false;
                p.temps_per_op /= 2;
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.channels <= 1)
                    return false;
                p.channels = std::max(1, p.channels / 2);
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.features <= 1)
                    return false;
                p.features = std::max(1, p.features / 2);
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.image <= 4)
                    return false;
                p.image = std::max(4, p.image / 2);
                return true;
            });
        },
        [](FuzzCase &c) {
            return mutateModel(c, [](SyntheticParams &p) {
                if (p.reuse_distance <= 1)
                    return false;
                p.reuse_distance = 1;
                return true;
            });
        },
        [](FuzzCase &c) {
            if (c.batch <= 1)
                return false;
            c.batch = std::max(1, c.batch / 2);
            return true;
        },
        [](FuzzCase &c) {
            if (c.steps <= 2)
                return false;
            c.steps = std::max(2, c.steps / 2);
            c.warmup = std::min(c.warmup, c.steps - 1);
            return true;
        },
        [](FuzzCase &c) {
            if (c.warmup == 0)
                return false;
            c.warmup = 0;
            return true;
        },
        [](FuzzCase &c) {
            if (c.tiers == 2)
                return false;
            c.tiers = 2;
            return true;
        },
        [](FuzzCase &c) {
            if (!c.gpu || !c.cpu)
                return false;
            c.gpu = false;
            return true;
        },
        [](FuzzCase &c) {
            if (!c.cpu || !c.gpu)
                return false;
            c.cpu = false;
            return true;
        },
    };
    return list;
}

} // namespace

FuzzCase
shrink(const FuzzCase &failing, int jobs, int *oracle_runs)
{
    int runs = 0;
    auto finish = [&](const FuzzCase &c) {
        if (oracle_runs)
            *oracle_runs = runs;
        return c;
    };

    // Re-derive the failure key exactly as the driver saw it.
    OracleReport first = failing.run(jobs, /*check_determinism=*/true);
    ++runs;
    if (first.ok())
        return finish(failing); // not failing: nothing to shrink
    const std::string key = first.violations.front().invariant;
    bool need_det = key == "determinism";

    auto failsSame = [&](const FuzzCase &c) {
        ++runs;
        try {
            OracleReport rep = c.run(jobs, need_det);
            for (const OracleViolation &v : rep.violations)
                if (v.invariant == key)
                    return true;
            return false;
        } catch (const ConfigError &) {
            return false; // shrunk into a rejected input: not the bug
        }
    };

    FuzzCase cur = failing;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (const Transform &t : transforms()) {
            for (;;) {
                FuzzCase cand = cur;
                if (!t(cand))
                    break;
                if (!failsSame(cand))
                    break;
                cur = cand;
                progressed = true;
            }
        }
    }
    return finish(cur);
}

} // namespace sentinel::harness
