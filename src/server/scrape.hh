/**
 * @file
 * The multi-job server's live observability plane.
 *
 * Every job admitted to the node gets a scrape registry: per-step time
 * series (co-located step time, solo exposed migration, arbiter
 * dilation, DMA grants, fast-tier residency) in telemetry::TimeSeries
 * rings sized at admission, fed by the node simulation at every
 * job-step completion — the feed itself is allocation-free, only
 * scrapes (render/snapshot) may allocate.
 *
 * On top of the per-job series sits an SLO burn-rate monitor in the
 * SRE mold: a job's SLO is "a step finishes within target_factor x its
 * solo mean step time", its error budget is the fraction of steps
 * allowed to miss, and the burn rate is (miss fraction over the last
 * `window` steps) / budget.  A burn rate of 1 spends the budget
 * exactly; when it crosses `burn_threshold` the monitor emits one
 * edge-triggered kSloBurnAlert telemetry event and one kSloBurnAlert
 * audit record (same timestamp — the standard event/audit join), and
 * re-arms once the burn drops back under the threshold.
 *
 * The plane renders as one OpenMetrics exposition (openmetrics.hh):
 * `sentinel-cli serve --listen` serves it over HTTP, `--scrape-out`
 * appends deterministic frames to a file, and `sentinel-cli top`
 * renders either source as a terminal table (renderTopFrame).
 */

#ifndef SENTINEL_SERVER_SCRAPE_HH
#define SENTINEL_SERVER_SCRAPE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dataflow/step_stats.hh"
#include "telemetry/audit.hh"
#include "telemetry/openmetrics.hh"
#include "telemetry/session.hh"
#include "telemetry/timeseries.hh"

namespace sentinel::server {

/** Per-job service-level objective and burn-alert thresholds. */
struct SloConfig {
    /** SLO: step time <= target_factor * solo mean step time. */
    double target_factor = 1.5;

    /** Error budget: fraction of steps allowed to miss the target. */
    double error_budget = 0.10;

    /** Alert when burn rate (miss fraction / budget) reaches this. */
    double burn_threshold = 2.0;

    /** Steps in the sliding burn window. */
    std::size_t window = 16;
};

struct ScrapeConfig {
    SloConfig slo;

    /** Write one snapshot frame every N job-step completions to the
     *  snapshot stream (0 = only the final frame, if a stream is
     *  attached at all). */
    int snapshot_every = 0;
};

/** One job's scrape registry + burn state. */
struct JobScrape {
    std::string name;
    std::uint64_t quota_bytes = 0;
    Tick solo_mean_step = 0; ///< phase-1 mean (all steps)
    Tick target_step = 0;    ///< SLO target derived from it

    telemetry::TimeSeries step_ns;     ///< co-located step durations
    telemetry::TimeSeries exposed_ns;  ///< solo exposed migration
    telemetry::TimeSeries throttle_ns; ///< arbiter dilation (co - solo)
    telemetry::TimeSeries granted_bytes; ///< promote+demote DMA grants
    telemetry::TimeSeries resident_bytes; ///< solo peak fast occupancy
    telemetry::TimeSeries misses;      ///< 1 when the step missed SLO

    bool admitted = false;
    bool alerting = false; ///< burn currently above threshold
    std::uint64_t steps_done = 0;
    std::uint64_t violations = 0; ///< total SLO misses
    std::uint64_t alerts = 0;     ///< edge-triggered burn alerts

    /** Miss fraction over the burn window / error budget. */
    double burnRate(const SloConfig &slo) const;

    /** 1 - (window miss fraction); the scrape's slo_attainment. */
    double attainment() const;
};

class ObservabilityPlane
{
  public:
    /**
     * @param session  optional: burn alerts are emitted into its event
     *                 ring; node counters land in its registry at
     *                 finish().
     * @param audit    optional: one kSloBurnAlert record per alert.
     * @param snapshot optional: frames are appended here.
     */
    ObservabilityPlane(ScrapeConfig cfg,
                       telemetry::Session *session = nullptr,
                       telemetry::AuditLog *audit = nullptr,
                       std::ostream *snapshot = nullptr);

    /** Size the node-level series; called once by runServer. */
    void setNode(std::uint64_t fast_bytes, double headroom);

    /** Register job @p j (pre-sizes every ring).  @p solo_mean is the
     *  phase-1 mean step time the SLO target derives from. */
    void attachJob(std::size_t j, const std::string &name,
                   std::uint64_t quota_bytes, Tick solo_mean);

    /** Node-simulation hooks (allocation-free except snapshots). */
    void onAdmit(std::size_t j, Tick now, std::uint64_t committed);
    void onStepComplete(std::size_t j, int step, Tick duration,
                        const df::StepStats &solo, Tick now,
                        std::uint64_t committed);
    /** End of the run: flush the final frame, publish node counters. */
    void finish(Tick makespan);

    /** Render one OpenMetrics exposition of the current state. */
    void render(std::ostream &os) const;
    std::string renderString() const;

    const JobScrape &job(std::size_t j) const;
    std::size_t numJobs() const { return jobs_.size(); }
    std::uint64_t alerts() const { return alerts_; }
    int snapshots() const { return snapshots_; }
    const ScrapeConfig &config() const { return cfg_; }

  private:
    void maybeSnapshot(Tick now, bool force);

    ScrapeConfig cfg_;
    telemetry::Session *session_;
    telemetry::AuditLog *audit_;
    std::ostream *snapshot_;

    std::vector<JobScrape> jobs_;
    std::uint64_t fast_bytes_ = 0;
    double headroom_ = 1.0;
    std::uint64_t committed_ = 0;
    Tick last_tick_ = 0;
    std::uint64_t node_steps_ = 0;
    std::uint64_t alerts_ = 0;
    int snapshots_ = 0;
    bool finished_ = false;
};

/**
 * Render one `sentinel-cli top` frame from parsed scrape samples:
 * one row per job (steps, p50/p99 step ms, fast residency, bandwidth
 * share, SLO attainment, burn rate, alerts) plus a node footer.
 * Works identically on a live endpoint's body and a snapshot frame.
 */
std::string renderTopFrame(const std::vector<telemetry::OmSample> &samples);

} // namespace sentinel::server

#endif // SENTINEL_SERVER_SCRAPE_HH
