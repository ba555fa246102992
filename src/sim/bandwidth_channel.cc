#include "sim/bandwidth_channel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sentinel::sim {

namespace {

/**
 * Append @p s to the piecewise series @p out, merging it into the last
 * piece when it continues that piece's progression.  Empty pieces are
 * dropped.
 */
void
appendSeries(std::vector<TransferSeries> &out, TransferSeries s)
{
    if (s.count == 0)
        return;
    if (!out.empty()) {
        TransferSeries &b = out.back();
        // A one-transfer piece has no pace of its own yet; it takes
        // the continuing piece's.
        const Tick step = b.count == 1 ? s.first - b.first : b.step;
        if (s.first == b.last() + step && (s.count == 1 || s.step == step)) {
            b.step = step;
            b.count += s.count;
            return;
        }
    }
    out.push_back(s);
}

} // namespace

BandwidthChannel::BandwidthChannel(std::string name, double bytes_per_sec,
                                   Tick startup_latency)
    : name_(std::move(name)), bytes_per_sec_(bytes_per_sec),
      startup_latency_(startup_latency)
{
    SENTINEL_ASSERT(bytes_per_sec_ > 0.0,
                    "channel '%s' needs positive bandwidth", name_.c_str());
    SENTINEL_ASSERT(startup_latency_ >= 0, "negative startup latency");
}

Tick
BandwidthChannel::submit(Tick ready, std::uint64_t bytes)
{
    return submitWithStartup(ready, bytes, startup_latency_);
}

Tick
BandwidthChannel::submitWithStartup(Tick ready, std::uint64_t bytes,
                                    Tick startup)
{
    Tick start = std::max(ready, busy_until_);
    Tick duration = startup + transferTime(bytes, bytes_per_sec_);
    busy_until_ = start + duration;
    bytes_transferred_ += bytes;
    num_transfers_ += 1;
    busy_time_ += duration;
    return busy_until_;
}

void
BandwidthChannel::submitSeries(const TransferSeries &in, std::uint64_t bytes,
                               Tick startup, std::vector<TransferSeries> &out)
{
    const std::uint64_t n = in.count;
    if (n == 0)
        return;
    SENTINEL_ASSERT(in.step >= 0, "transfer series must not run backward");
    const Tick tt = transferTime(bytes, bytes_per_sec_);
    // D(k) = max(A(k), D(k-1)) + tt, with D(0) also paying startup.
    // Unrolled, D(k) = max(D(0) + k*tt, max_j A(j) + (k-j+1)*tt) for
    // j in [1, k].  With A(j) = a + j*s the inner max sits at j = 1
    // when s <= tt (and is then dominated by D(0) + k*tt) and at j = k
    // when s > tt, so the completions are D(0) + k*tt up to the
    // crossover m and a + k*s + tt from there on.
    const Tick d0 = std::max(in.first, busy_until_) + startup + tt;
    std::uint64_t m = n;
    if (in.step > tt) {
        // D(0) + k*tt >= a + k*s + tt  <=>  k*(s - tt) <= g.
        const Tick g = d0 - in.first - tt;
        const std::uint64_t cross =
            static_cast<std::uint64_t>((g + (in.step - tt) - 1) /
                                       (in.step - tt));
        m = std::min(n, cross);
    }
    appendSeries(out, TransferSeries{ d0, tt, m });
    appendSeries(out, TransferSeries{ in.at(m) + tt, in.step, n - m });
    busy_until_ = m == n ? d0 + static_cast<Tick>(n - 1) * tt
                         : in.at(n - 1) + tt;
    bytes_transferred_ += n * bytes;
    num_transfers_ += n;
    busy_time_ += startup + static_cast<Tick>(n) * tt;
}

TransferSeries
BandwidthChannel::submitSpaced(const TransferSeries &in, std::uint64_t bytes,
                               Tick startup)
{
    const Tick duration = startup + transferTime(bytes, bytes_per_sec_);
    const TransferSeries out{ in.first + duration, in.step, in.count };
    if (in.count == 0)
        return out;
    SENTINEL_ASSERT(busy_until_ <= in.first &&
                        (in.count == 1 || in.step >= duration),
                    "spaced series on '%s' would queue", name_.c_str());
    busy_until_ = out.last();
    bytes_transferred_ += in.count * bytes;
    num_transfers_ += in.count;
    busy_time_ += static_cast<Tick>(in.count) * duration;
    return out;
}

Tick
BandwidthChannel::estimateCompletion(Tick ready, std::uint64_t bytes) const
{
    Tick start = std::max(ready, busy_until_);
    return start + startup_latency_ + transferTime(bytes, bytes_per_sec_);
}

void
BandwidthChannel::setBandwidth(double bytes_per_sec)
{
    SENTINEL_ASSERT(bytes_per_sec > 0.0,
                    "channel '%s' needs positive bandwidth", name_.c_str());
    bytes_per_sec_ = bytes_per_sec;
}

void
BandwidthChannel::blockUntil(Tick until)
{
    if (until <= busy_until_) return;
    busy_time_ += until - busy_until_;
    busy_until_ = until;
}

void
BandwidthChannel::reset()
{
    busy_until_ = 0;
    bytes_transferred_ = 0;
    num_transfers_ = 0;
    busy_time_ = 0;
}

} // namespace sentinel::sim
