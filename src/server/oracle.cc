#include "server/oracle.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sentinel::server {

namespace {

const char *
platformTag(harness::Platform p)
{
    return p == harness::Platform::Optane ? "cpu" : "gpu";
}

void
violate(harness::OracleReport &rep, const ServerConfig &cfg,
        const std::string &invariant, const std::string &job,
        std::string detail)
{
    rep.violations.push_back(harness::OracleViolation{
        invariant, job, platformTag(cfg.platform), std::move(detail) });
}

/** Field-exact compare of the traffic-bearing parts of two solo step
 *  traces.  Returns a description of the first mismatch, or empty. */
std::string
diffStepTraffic(const std::vector<df::StepStats> &a,
                const std::vector<df::StepStats> &b)
{
    if (a.size() != b.size())
        return strprintf("step count %zu vs %zu", a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        const df::StepStats &x = a[k];
        const df::StepStats &y = b[k];
        auto diff = [&](const char *field, std::uint64_t u,
                        std::uint64_t v) {
            return strprintf("step %zu %s: %llu vs %llu", k, field,
                             static_cast<unsigned long long>(u),
                             static_cast<unsigned long long>(v));
        };
        if (x.promoted_bytes != y.promoted_bytes)
            return diff("promoted_bytes", x.promoted_bytes,
                        y.promoted_bytes);
        if (x.demoted_bytes != y.demoted_bytes)
            return diff("demoted_bytes", x.demoted_bytes,
                        y.demoted_bytes);
        if (x.bytes_fast != y.bytes_fast)
            return diff("bytes_fast", x.bytes_fast, y.bytes_fast);
        if (x.bytes_slow != y.bytes_slow)
            return diff("bytes_slow", x.bytes_slow, y.bytes_slow);
        if (x.num_stalls != y.num_stalls)
            return diff("num_stalls", x.num_stalls, y.num_stalls);
        if (x.step_time != y.step_time)
            return diff("step_time", static_cast<std::uint64_t>(
                                         x.step_time),
                        static_cast<std::uint64_t>(y.step_time));
        for (std::size_t i = 0; i < df::StepStats::kNumTensorKinds; ++i)
            if (x.slow_bytes_by_kind[i] != y.slow_bytes_by_kind[i])
                return diff("slow_bytes_by_kind", x.slow_bytes_by_kind[i],
                            y.slow_bytes_by_kind[i]);
    }
    return {};
}

} // namespace

harness::OracleReport
runServerOracle(const ServerConfig &cfg, const std::vector<JobSpec> &specs,
                const ServerOracleOptions &opts)
{
    harness::OracleReport rep;

    ServerConfig serial_cfg = cfg;
    serial_cfg.jobs = 1;
    serial_cfg.telemetry = nullptr;
    ServerResult ref = runServer(serial_cfg, specs);

    // --- server-determinism: serial == --jobs N, byte for byte -------
    if (opts.check_determinism && opts.jobs > 1) {
        ServerConfig par_cfg = serial_cfg;
        par_cfg.jobs = opts.jobs;
        ServerResult par = runServer(par_cfg, specs);
        if (ref.summary() != par.summary())
            violate(rep, cfg, "server-determinism", "*",
                    strprintf("summary differs between serial and "
                              "jobs=%d runs",
                              opts.jobs));
        for (std::size_t j = 0;
             j < ref.jobs.size() && j < par.jobs.size(); ++j)
            if (ref.jobs[j].step_durations !=
                par.jobs[j].step_durations)
                violate(rep, cfg, "server-determinism",
                        ref.jobs[j].spec.name,
                        "step-duration trace differs between serial "
                        "and parallel runs");
    }

    // --- per-job checks ----------------------------------------------
    std::uint64_t solo_promoted = 0, solo_demoted = 0;
    for (const JobResult &r : ref.jobs) {
        if (r.status != JobStatus::Completed)
            continue;
        const std::string &job = r.spec.name;

        if (r.admit < r.submit || r.finish < r.admit)
            violate(rep, cfg, "dilation", job,
                    strprintf("non-causal lifecycle: submit %lld, "
                              "admit %lld, finish %lld",
                              static_cast<long long>(r.submit),
                              static_cast<long long>(r.admit),
                              static_cast<long long>(r.finish)));
        for (std::size_t k = 0; k < r.step_durations.size(); ++k)
            if (r.step_durations[k] < r.solo_steps[k].step_time) {
                violate(rep, cfg, "dilation", job,
                        strprintf("step %zu co-located duration %lld "
                                  "< solo %lld",
                                  k,
                                  static_cast<long long>(
                                      r.step_durations[k]),
                                  static_cast<long long>(
                                      r.solo_steps[k].step_time)));
                break;
            }

        for (const df::StepStats &s : r.solo_steps) {
            solo_promoted += s.promoted_bytes;
            solo_demoted += s.demoted_bytes;
        }

        // Independent solo re-run: the server must not have perturbed
        // the job's simulation in any way — identical config in a
        // fresh harness must reproduce the trace bit for bit (this
        // doubles the per-job simulation cost).
        harness::ExperimentConfig ec;
        ec.model = r.spec.model;
        ec.batch = r.spec.batch;
        ec.platform = cfg.platform;
        ec.fast_bytes = r.quota_bytes;
        ec.steps = r.steps;
        ec.warmup = r.warmup;
        ec.chaos = r.spec.chaos;
        ec.chaos_seed = r.spec.chaos_seed;
        harness::StepTrace solo =
            harness::runExperimentSteps(ec, r.spec.policy);
        std::string d = diffStepTraffic(r.solo_steps, solo.steps);
        if (!d.empty())
            violate(rep, cfg, "job-traffic", job,
                    "co-located trace diverges from solo re-run: " + d);
    }

    // --- node-conservation -------------------------------------------
    if (ref.promoted_bytes != solo_promoted ||
        ref.demoted_bytes != solo_demoted)
        violate(rep, cfg, "node-conservation", "*",
                strprintf("node DMA totals %llu/%llu != solo sums "
                          "%llu/%llu",
                          static_cast<unsigned long long>(
                              ref.promoted_bytes),
                          static_cast<unsigned long long>(
                              ref.demoted_bytes),
                          static_cast<unsigned long long>(solo_promoted),
                          static_cast<unsigned long long>(solo_demoted)));

    // --- capacity ----------------------------------------------------
    std::uint64_t limit = std::max(
        static_cast<std::uint64_t>(
            static_cast<double>(cfg.fast_bytes) * cfg.headroom),
        cfg.fast_bytes);
    if (ref.peak_committed > limit)
        violate(rep, cfg, "capacity", "*",
                strprintf("peak committed %llu exceeds admission "
                          "limit %llu",
                          static_cast<unsigned long long>(
                              ref.peak_committed),
                          static_cast<unsigned long long>(limit)));

    return rep;
}

std::vector<JobSpec>
randomColocation(std::uint64_t seed, int njobs)
{
    SENTINEL_ASSERT(njobs > 0, "co-location needs at least one job");
    Rng rng(seed ^ 0x5e97e12ull);

    // Light zoo members only: the oracle re-runs every job solo, so a
    // bert_large or mobilenet cell would dominate the whole check's
    // runtime (their peaks are 10-100x the CIFAR ResNets').
    static const char *const kZoo[] = { "resnet20", "resnet32" };
    static const char *const kPolicies[] = { "sentinel", "sentinel",
                                             "sentinel", "ial", "numa" };

    std::vector<JobSpec> specs;
    for (int i = 0; i < njobs; ++i) {
        JobSpec s;
        if (rng.bernoulli(0.5))
            s.model = strprintf("synthetic:%llu",
                                static_cast<unsigned long long>(
                                    rng.uniformInt(1, 1u << 20)));
        else
            s.model = kZoo[rng.uniformInt(0, 1)];
        s.batch = static_cast<int>(rng.uniformInt(2, 8));
        s.policy = kPolicies[rng.uniformInt(0, 4)];
        s.quota_fraction = rng.uniformReal(0.2, 0.45);
        s.priority = static_cast<int>(rng.uniformInt(1, 3));
        s.arrival = rng.uniformInt(0, 20) * kMsec;
        s.steps = 6;
        s.warmup = 3;
        specs.push_back(std::move(s));
    }
    return specs;
}

} // namespace sentinel::server
