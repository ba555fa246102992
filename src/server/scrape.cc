#include "server/scrape.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "telemetry/event.hh"

namespace sentinel::server {

using telemetry::OmLabel;
using telemetry::OmSample;
using telemetry::omWriteEof;
using telemetry::omWriteSample;
using telemetry::omWriteType;

double
JobScrape::burnRate(const SloConfig &slo) const
{
    telemetry::WindowStats w = misses.window();
    if (w.count == 0 || slo.error_budget <= 0.0)
        return 0.0;
    double fraction =
        static_cast<double>(w.sum) / static_cast<double>(w.count);
    return fraction / slo.error_budget;
}

double
JobScrape::attainment() const
{
    telemetry::WindowStats w = misses.window();
    if (w.count == 0)
        return 1.0;
    return 1.0 - static_cast<double>(w.sum) / static_cast<double>(w.count);
}

namespace {

/** Series options for the SLO miss indicator: its window IS the burn
 *  window, whatever the default ring sizing says. */
telemetry::TimeSeriesOptions
missOptions(const ScrapeConfig &cfg)
{
    telemetry::TimeSeriesOptions o;
    o.window = std::max<std::size_t>(1, cfg.slo.window);
    o.capacity = std::max(o.capacity, o.window);
    return o;
}

} // namespace

ObservabilityPlane::ObservabilityPlane(ScrapeConfig cfg,
                                       telemetry::Session *session,
                                       telemetry::AuditLog *audit,
                                       std::ostream *snapshot)
    : cfg_(cfg), session_(session), audit_(audit), snapshot_(snapshot)
{
    SENTINEL_ASSERT(cfg_.slo.target_factor >= 1.0,
                    "SLO target factor must be >= 1");
    SENTINEL_ASSERT(cfg_.slo.window > 0, "SLO burn window must be > 0");
}

void
ObservabilityPlane::setNode(std::uint64_t fast_bytes, double headroom)
{
    fast_bytes_ = fast_bytes;
    headroom_ = headroom;
}

void
ObservabilityPlane::attachJob(std::size_t j, const std::string &name,
                              std::uint64_t quota_bytes, Tick solo_mean)
{
    if (jobs_.size() <= j)
        jobs_.resize(j + 1);
    JobScrape &js = jobs_[j];
    js.name = name;
    js.quota_bytes = quota_bytes;
    js.solo_mean_step = solo_mean;
    js.target_step = static_cast<Tick>(
        static_cast<double>(solo_mean) * cfg_.slo.target_factor);
    js.step_ns = telemetry::TimeSeries();
    js.exposed_ns = telemetry::TimeSeries();
    js.throttle_ns = telemetry::TimeSeries();
    js.granted_bytes = telemetry::TimeSeries();
    js.resident_bytes = telemetry::TimeSeries();
    js.misses = telemetry::TimeSeries(missOptions(cfg_));
}

void
ObservabilityPlane::onAdmit(std::size_t j, Tick now,
                            std::uint64_t committed)
{
    SENTINEL_ASSERT(j < jobs_.size(), "admit for an unattached job");
    jobs_[j].admitted = true;
    committed_ = committed;
    last_tick_ = now;
}

void
ObservabilityPlane::onStepComplete(std::size_t j, int step, Tick duration,
                                   const df::StepStats &solo, Tick now,
                                   std::uint64_t committed)
{
    SENTINEL_ASSERT(j < jobs_.size(), "step for an unattached job");
    JobScrape &js = jobs_[j];

    js.step_ns.pushAt(static_cast<std::uint64_t>(duration), now);
    js.exposed_ns.push(
        static_cast<std::uint64_t>(solo.exposed_migration));
    js.throttle_ns.push(
        static_cast<std::uint64_t>(duration - solo.step_time));
    js.granted_bytes.pushAt(solo.promoted_bytes + solo.demoted_bytes,
                            now);
    js.resident_bytes.push(solo.peak_fast_used);

    bool miss = js.target_step > 0 && duration > js.target_step;
    js.misses.push(miss ? 1 : 0);
    if (miss)
        ++js.violations;

    ++js.steps_done;
    ++node_steps_;
    committed_ = committed;
    last_tick_ = now;

    // Burn-rate monitor: edge-triggered once the window is full, so a
    // single early miss cannot page anyone; re-arms when the burn
    // drops back under the threshold.
    if (js.misses.total() >=
        static_cast<std::uint64_t>(cfg_.slo.window)) {
        double burn = js.burnRate(cfg_.slo);
        if (!js.alerting && burn >= cfg_.slo.burn_threshold) {
            js.alerting = true;
            ++js.alerts;
            ++alerts_;
            auto milli = static_cast<std::uint64_t>(burn * 1000.0);
            if (session_)
                session_->emit(telemetry::EventType::SloBurnAlert, now,
                               0, milli,
                               static_cast<std::uint32_t>(j));
            if (audit_) {
                telemetry::AuditRecord rec;
                rec.ts = now;
                rec.bytes = milli;
                rec.tensor = telemetry::kAuditNoTensor;
                rec.step = step;
                rec.reason = telemetry::AuditReason::kSloBurnAlert;
                audit_->append(rec);
            }
        } else if (js.alerting && burn < cfg_.slo.burn_threshold) {
            js.alerting = false;
        }
    }

    maybeSnapshot(now, /*force=*/false);
}

void
ObservabilityPlane::finish(Tick makespan)
{
    if (finished_)
        return;
    finished_ = true;
    last_tick_ = makespan;
    committed_ = 0; // every admitted job has released its quota
    maybeSnapshot(makespan, /*force=*/true);
    if (session_) {
        auto &m = session_->metrics();
        m.counter("obs.slo_alerts").add(alerts_);
        m.counter("obs.scrape_frames")
            .add(static_cast<std::uint64_t>(snapshots_));
        std::uint64_t violations = 0;
        for (const JobScrape &js : jobs_)
            violations += js.violations;
        m.counter("obs.slo_violations").add(violations);
    }
}

void
ObservabilityPlane::maybeSnapshot(Tick now, bool force)
{
    if (!snapshot_)
        return;
    if (!force &&
        (cfg_.snapshot_every <= 0 ||
         node_steps_ % static_cast<std::uint64_t>(cfg_.snapshot_every) !=
             0))
        return;
    ++snapshots_;
    *snapshot_ << "# scrape k=" << snapshots_ << " tick=" << now << '\n';
    render(*snapshot_);
}

void
ObservabilityPlane::render(std::ostream &os) const
{
    // Per-job family blocks: TYPE line once, one sample per job.  The
    // exposition carries no wall-clock timestamps — it is a pure
    // function of simulated state, which is what makes snapshots
    // byte-identical across --jobs values.
    struct Fam {
        const char *name;
        const char *type;
    };
    auto forJobs = [&](const Fam &fam, auto value) {
        omWriteType(os, fam.name, fam.type);
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            std::vector<OmLabel> labels{ { "job", jobs_[j].name } };
            value(jobs_[j], labels);
        }
    };

    forJobs({ "sentinel_job_steps_total", "counter" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_steps_total", l,
                              static_cast<double>(js.steps_done));
            });
    forJobs({ "sentinel_job_step_ms", "summary" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                const telemetry::Histogram &h = js.step_ns.sketch();
                std::vector<OmLabel> ql = l;
                ql.push_back({ "quantile", "0.5" });
                omWriteSample(os, "sentinel_job_step_ms", ql,
                              toMillis(static_cast<Tick>(
                                  h.percentile(0.50))));
                ql.back().value = "0.99";
                omWriteSample(os, "sentinel_job_step_ms", ql,
                              toMillis(static_cast<Tick>(
                                  h.percentile(0.99))));
                omWriteSample(os, "sentinel_job_step_ms_count", l,
                              static_cast<double>(h.count()));
                omWriteSample(os, "sentinel_job_step_ms_sum", l,
                              toMillis(static_cast<Tick>(h.sum())));
            });
    forJobs({ "sentinel_job_step_ms_ewma", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_step_ms_ewma", l,
                              js.step_ns.ewma() / 1e6);
            });
    forJobs({ "sentinel_job_exposed_ms_total", "counter" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_exposed_ms_total", l,
                              toMillis(static_cast<Tick>(
                                  js.exposed_ns.sketch().sum())));
            });
    forJobs({ "sentinel_job_throttle_ms_total", "counter" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_throttle_ms_total", l,
                              toMillis(static_cast<Tick>(
                                  js.throttle_ns.sketch().sum())));
            });
    forJobs({ "sentinel_job_dma_bytes_total", "counter" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_dma_bytes_total", l,
                              static_cast<double>(
                                  js.granted_bytes.sketch().sum()));
            });
    forJobs({ "sentinel_job_dma_bytes_per_s", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_dma_bytes_per_s", l,
                              js.granted_bytes.ewmaRate());
            });
    forJobs({ "sentinel_job_fast_resident_bytes", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_fast_resident_bytes", l,
                              js.resident_bytes.window().mean);
            });
    forJobs({ "sentinel_job_quota_bytes", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_quota_bytes", l,
                              static_cast<double>(js.quota_bytes));
            });
    forJobs({ "sentinel_job_admitted", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_admitted", l,
                              js.admitted ? 1.0 : 0.0);
            });
    forJobs({ "sentinel_job_slo_target_ms", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_slo_target_ms", l,
                              toMillis(js.target_step));
            });
    forJobs({ "sentinel_job_slo_attainment", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_slo_attainment", l,
                              js.attainment());
            });
    forJobs({ "sentinel_job_slo_burn_rate", "gauge" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_slo_burn_rate", l,
                              js.burnRate(cfg_.slo));
            });
    forJobs({ "sentinel_job_slo_violations_total", "counter" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_slo_violations_total", l,
                              static_cast<double>(js.violations));
            });
    forJobs({ "sentinel_job_slo_alerts_total", "counter" },
            [&](const JobScrape &js, std::vector<OmLabel> &l) {
                omWriteSample(os, "sentinel_job_slo_alerts_total", l,
                              static_cast<double>(js.alerts));
            });

    // Node-level block.
    std::vector<OmLabel> none;
    omWriteType(os, "sentinel_node_fast_bytes", "gauge");
    omWriteSample(os, "sentinel_node_fast_bytes", none,
                  static_cast<double>(fast_bytes_));
    omWriteType(os, "sentinel_node_committed_bytes", "gauge");
    omWriteSample(os, "sentinel_node_committed_bytes", none,
                  static_cast<double>(committed_));
    double limit = headroom_ * static_cast<double>(fast_bytes_);
    omWriteType(os, "sentinel_node_quota_headroom_bytes", "gauge");
    omWriteSample(os, "sentinel_node_quota_headroom_bytes", none,
                  std::max(0.0,
                           limit - static_cast<double>(committed_)));
    omWriteType(os, "sentinel_node_steps_total", "counter");
    omWriteSample(os, "sentinel_node_steps_total", none,
                  static_cast<double>(node_steps_));
    omWriteType(os, "sentinel_node_slo_alerts_total", "counter");
    omWriteSample(os, "sentinel_node_slo_alerts_total", none,
                  static_cast<double>(alerts_));
    omWriteType(os, "sentinel_node_tick", "gauge");
    omWriteSample(os, "sentinel_node_tick", none,
                  static_cast<double>(last_tick_ < 0 ? 0 : last_tick_));
    omWriteEof(os);
}

std::string
ObservabilityPlane::renderString() const
{
    std::ostringstream ss;
    render(ss);
    return ss.str();
}

const JobScrape &
ObservabilityPlane::job(std::size_t j) const
{
    SENTINEL_ASSERT(j < jobs_.size(), "no such job scrape");
    return jobs_[j];
}

std::string
renderTopFrame(const std::vector<OmSample> &samples)
{
    // Regroup the flat sample list: per-job rows keyed by the "job"
    // label (insertion order preserved — the exposition lists jobs in
    // index order), node footer from the label-free samples.
    struct Row {
        std::map<std::string, double> v;
        std::map<std::string, double> q; ///< quantile -> value
    };
    std::vector<std::string> order;
    std::map<std::string, Row> jobs;
    std::map<std::string, double> node;
    for (const OmSample &s : samples) {
        const std::string &job = s.label("job");
        if (job.empty()) {
            node[s.name] = s.value;
            continue;
        }
        if (jobs.find(job) == jobs.end())
            order.push_back(job);
        Row &r = jobs[job];
        const std::string &quantile = s.label("quantile");
        if (s.name == "sentinel_job_step_ms" && !quantile.empty())
            r.q[quantile] = s.value;
        else
            r.v[s.name] = s.value;
    }

    Table t("sentinel top",
            { "job", "steps", "p50_ms", "p99_ms", "ewma_ms", "quota_mb",
              "resident_mb", "dma_mb_s", "attain", "burn", "alerts" });
    auto get = [](const std::map<std::string, double> &m,
                  const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    for (const std::string &name : order) {
        const Row &r = jobs[name];
        t.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(
                get(r.v, "sentinel_job_steps_total")))
            .cell(get(r.q, "0.5"), 2)
            .cell(get(r.q, "0.99"), 2)
            .cell(get(r.v, "sentinel_job_step_ms_ewma"), 2)
            .cell(get(r.v, "sentinel_job_quota_bytes") / 1e6, 1)
            .cell(get(r.v, "sentinel_job_fast_resident_bytes") / 1e6, 1)
            .cell(get(r.v, "sentinel_job_dma_bytes_per_s") / 1e6, 1)
            .cell(get(r.v, "sentinel_job_slo_attainment"), 3)
            .cell(get(r.v, "sentinel_job_slo_burn_rate"), 2)
            .cell(static_cast<std::uint64_t>(
                get(r.v, "sentinel_job_slo_alerts_total")));
    }

    std::ostringstream os;
    t.print(os);
    os << strprintf(
        "node: %.1f MB fast, %.1f MB committed, %.1f MB headroom | "
        "steps %llu | alerts %llu | tick %.3f ms\n",
        get(node, "sentinel_node_fast_bytes") / 1e6,
        get(node, "sentinel_node_committed_bytes") / 1e6,
        get(node, "sentinel_node_quota_headroom_bytes") / 1e6,
        static_cast<unsigned long long>(
            get(node, "sentinel_node_steps_total")),
        static_cast<unsigned long long>(
            get(node, "sentinel_node_slo_alerts_total")),
        get(node, "sentinel_node_tick") / 1e6);
    return os.str();
}

} // namespace sentinel::server
