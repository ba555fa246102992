/**
 * @file
 * Windowed per-step time series: the live half of the telemetry
 * subsystem.
 *
 * Counters and histograms (metrics.hh) answer "what happened over the
 * whole run"; a TimeSeries answers "what is happening NOW".  Each
 * series keeps
 *
 *  - a fixed-capacity ring of the most recent samples (the raw
 *    material for sparklines and snapshot replay),
 *  - an O(1) sliding-window sum (window min/max/mean are computed on
 *    demand by scanning the — small — window; scrapes may pay O(W),
 *    pushes may not),
 *  - an exponentially weighted moving average of the sample value and,
 *    when samples carry simulated timestamps, of the sample *rate* per
 *    simulated second, and
 *  - a streaming percentile sketch over ALL samples, reusing the log2
 *    Histogram so p50/p99 cost no memory proportional to the run.
 *
 * Everything is sized at construction: push() never allocates; only
 * reads that render (scrapes, snapshots) may.
 *
 * The multi-job server keeps one TimeSeries per job and metric
 * (server/scrape.hh), fed at every job-step completion: they are what
 * the OpenMetrics scrape (openmetrics.hh) and `sentinel-cli top` show.
 */

#ifndef SENTINEL_TELEMETRY_TIMESERIES_HH
#define SENTINEL_TELEMETRY_TIMESERIES_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "telemetry/metrics.hh"

namespace sentinel::telemetry {

struct TimeSeriesOptions {
    /** Ring capacity: most recent samples retained for replay. */
    std::size_t capacity = 128;

    /** Sliding-window length in samples (clamped to capacity). */
    std::size_t window = 32;
};

/** Point-in-time aggregate of a series' sliding window. */
struct WindowStats {
    std::size_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
};

class TimeSeries
{
  public:
    /** EWMA smoothing factor of the value and the rate averages. */
    static constexpr double kEwmaAlpha = 0.25;

    explicit TimeSeries(TimeSeriesOptions opts = {});

    /** Record one sample.  O(1), allocation-free. */
    void push(std::uint64_t v);

    /**
     * Record one sample stamped at simulated time @p now.  Also feeds
     * the rate EWMA with v / dt (per simulated second) where dt is the
     * gap since the previous stamped push; the first stamped push only
     * anchors the clock.
     */
    void pushAt(std::uint64_t v, Tick now);

    /** Total samples ever pushed (not capped by the ring). */
    std::uint64_t total() const { return total_; }

    /** Most recent sample (0 before the first push). */
    std::uint64_t last() const;

    /** Aggregate of the last min(window, total) samples. */
    WindowStats window() const;

    /** EWMA of the sample value (0 before the first push). */
    double ewma() const { return ewma_; }

    /** EWMA of the per-simulated-second rate (pushAt feeds it). */
    double ewmaRate() const { return ewma_rate_; }

    /** Streaming log2 percentile sketch over every pushed sample. */
    const Histogram &sketch() const { return sketch_; }

    /**
     * The @p i-th retained sample, oldest first; @p i must be <
     * retained().  Exposes the ring for snapshot replay and
     * sparklines.
     */
    std::uint64_t sample(std::size_t i) const;
    std::size_t retained() const;

    const TimeSeriesOptions &options() const { return opts_; }

    /** Forget everything; capacity (and thus allocation) is kept. */
    void reset();

  private:
    TimeSeriesOptions opts_;
    std::vector<std::uint64_t> ring_;
    std::uint64_t total_ = 0;
    std::uint64_t window_sum_ = 0;
    double ewma_ = 0.0;
    double ewma_rate_ = 0.0;
    Tick last_tick_ = -1;
    Histogram sketch_;
};

} // namespace sentinel::telemetry

#endif // SENTINEL_TELEMETRY_TIMESERIES_HH
