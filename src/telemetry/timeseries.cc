#include "telemetry/timeseries.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sentinel::telemetry {

TimeSeries::TimeSeries(TimeSeriesOptions opts) : opts_(opts)
{
    SENTINEL_ASSERT(opts_.capacity > 0, "time series needs capacity");
    if (opts_.window == 0 || opts_.window > opts_.capacity)
        opts_.window = opts_.capacity;
    ring_.assign(opts_.capacity, 0);
}

void
TimeSeries::push(std::uint64_t v)
{
    // The sample leaving the window (if any) is still in the ring:
    // window <= capacity, so slot (total - window) has not been
    // overwritten yet.
    if (total_ >= opts_.window)
        window_sum_ -= ring_[static_cast<std::size_t>(
            (total_ - opts_.window) % opts_.capacity)];
    window_sum_ += v;
    ring_[static_cast<std::size_t>(total_ % opts_.capacity)] = v;
    ++total_;
    double x = static_cast<double>(v);
    ewma_ = total_ == 1 ? x : ewma_ + kEwmaAlpha * (x - ewma_);
    sketch_.record(v);
}

void
TimeSeries::pushAt(std::uint64_t v, Tick now)
{
    if (last_tick_ >= 0 && now > last_tick_) {
        double rate = static_cast<double>(v) / toSeconds(now - last_tick_);
        ewma_rate_ = ewma_rate_ == 0.0
                         ? rate
                         : ewma_rate_ +
                               kEwmaAlpha * (rate - ewma_rate_);
    }
    last_tick_ = now;
    push(v);
}

std::uint64_t
TimeSeries::last() const
{
    if (total_ == 0)
        return 0;
    return ring_[static_cast<std::size_t>((total_ - 1) % opts_.capacity)];
}

WindowStats
TimeSeries::window() const
{
    WindowStats w;
    std::uint64_t n = std::min<std::uint64_t>(total_, opts_.window);
    if (n == 0)
        return w;
    w.count = static_cast<std::size_t>(n);
    w.sum = window_sum_;
    w.min = ~0ull;
    for (std::uint64_t i = total_ - n; i < total_; ++i) {
        std::uint64_t v =
            ring_[static_cast<std::size_t>(i % opts_.capacity)];
        w.min = std::min(w.min, v);
        w.max = std::max(w.max, v);
    }
    w.mean = static_cast<double>(w.sum) / static_cast<double>(n);
    return w;
}

std::uint64_t
TimeSeries::sample(std::size_t i) const
{
    SENTINEL_ASSERT(i < retained(), "sample %zu of %zu retained", i,
                    retained());
    std::uint64_t first = total_ > opts_.capacity ? total_ - opts_.capacity
                                                  : 0;
    return ring_[static_cast<std::size_t>((first + i) % opts_.capacity)];
}

std::size_t
TimeSeries::retained() const
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total_, opts_.capacity));
}

void
TimeSeries::reset()
{
    std::fill(ring_.begin(), ring_.end(), 0);
    total_ = 0;
    window_sum_ = 0;
    ewma_ = 0.0;
    ewma_rate_ = 0.0;
    last_tick_ = -1;
    sketch_.reset();
}

} // namespace sentinel::telemetry
