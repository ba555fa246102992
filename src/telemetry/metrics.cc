#include "telemetry/metrics.hh"

#include <algorithm>
#include <bit>

namespace sentinel::telemetry {

void
Histogram::record(std::uint64_t v)
{
    buckets_[static_cast<std::size_t>(std::bit_width(v))] += 1;
    count_ += 1;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(count_));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            // A bucket's upper bound, but never above the largest
            // value recorded, so quantiles stay monotone up to q = 1.
            if (i == 0)
                return 0;
            if (i >= 64)
                return max_;
            return std::min<std::uint64_t>((1ull << i) - 1, max_);
        }
    }
    return max_;
}

void
Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ull;
    max_ = 0;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

bool
MetricRegistry::empty() const
{
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::vector<MetricRow>
MetricRegistry::snapshot() const
{
    std::vector<MetricRow> rows;
    rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto &kv : counters_) {
        MetricRow r;
        r.name = kv.first;
        r.kind = "counter";
        r.sum = kv.second->value();
        rows.push_back(std::move(r));
    }
    for (const auto &kv : gauges_) {
        MetricRow r;
        r.name = kv.first;
        r.kind = "gauge";
        r.max = kv.second->max();
        rows.push_back(std::move(r));
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = *kv.second;
        MetricRow r;
        r.name = kv.first;
        r.kind = "histogram";
        r.count = h.count();
        r.sum = h.sum();
        r.min = h.min();
        r.max = h.max();
        r.p50 = h.percentile(0.50);
        r.p99 = h.percentile(0.99);
        rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const MetricRow &a, const MetricRow &b) {
                  return a.name < b.name;
              });
    return rows;
}

} // namespace sentinel::telemetry
