/**
 * @file
 * One telemetry session: an event sink plus a metric registry.
 *
 * Instrumented components (`df::Executor`, `mem::HeterogeneousMemory`,
 * `core::SentinelPolicy`, `prof::Profiler`) hold a `Session *` that is
 * null by default.  Disabled telemetry therefore costs exactly one
 * well-predicted branch per hook — no allocation, no virtual call, no
 * formatting — which is what keeps bench_micro's step time unchanged
 * when tracing is off.
 *
 * The executor publishes its per-step totals here once per step, at
 * step end, from the StepStats it returns (`exec.bytes_fast`,
 * `exec.bytes_slow`, `mem.fast_peak_bytes`): a session's counters are
 * sums and maxima of the steps it saw complete.
 *
 * Sessions are externally owned (by the caller of a harness run, a
 * bench, or a test) and can outlive the executors they observed, so exports can
 * happen after the run tears down.
 */

#ifndef SENTINEL_TELEMETRY_SESSION_HH
#define SENTINEL_TELEMETRY_SESSION_HH

#include <cstdint>

#include "common/logging.hh"
#include "telemetry/event_sink.hh"
#include "telemetry/metrics.hh"

namespace sentinel::telemetry {

struct TelemetryConfig {
    /** Ring capacity in events (rounded up to a power of two). */
    std::size_t ring_capacity = 1u << 16;
};

class Session
{
  public:
    explicit Session(TelemetryConfig cfg = {})
        : cfg_(cfg), sink_(cfg.ring_capacity)
    {
    }

    const TelemetryConfig &config() const { return cfg_; }

    EventSink &events() { return sink_; }
    const EventSink &events() const { return sink_; }

    MetricRegistry &metrics() { return metrics_; }
    const MetricRegistry &metrics() const { return metrics_; }

    /** Convenience emitter used by the instrumentation hooks. */
    void
    emit(EventType type, Tick ts, Tick dur = 0, std::uint64_t bytes = 0,
         std::uint32_t id = 0, std::uint8_t track = 0)
    {
        sink_.emit(Event{ ts, dur, bytes, id, type, track });
    }

    /**
     * Publish the ring's overflow count as the
     * "telemetry.events_dropped" counter (delta since the last sync,
     * so repeated calls never double-count) and warn once per session
     * when history was lost.  Call at export time: silent event loss
     * would skew any analysis — attribution cross-checks in
     * particular — that treats the ring as complete.
     */
    void
    syncDropCounter()
    {
        std::uint64_t d = sink_.dropped();
        if (d <= synced_drops_)
            return;
        metrics_.counter("telemetry.events_dropped").add(d - synced_drops_);
        synced_drops_ = d;
        if (!warned_drops_) {
            warned_drops_ = true;
            SENTINEL_WARN("telemetry ring overflowed: %llu events lost "
                          "(capacity %zu); raise --ring-capacity for "
                          "complete traces",
                          static_cast<unsigned long long>(d),
                          sink_.capacity());
        }
    }

  private:
    TelemetryConfig cfg_;
    EventSink sink_;
    MetricRegistry metrics_;
    std::uint64_t synced_drops_ = 0;
    bool warned_drops_ = false;
};

} // namespace sentinel::telemetry

#endif // SENTINEL_TELEMETRY_SESSION_HH
