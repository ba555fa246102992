/**
 * @file
 * The structured event model of the telemetry subsystem.
 *
 * Every interesting runtime occurrence — an operation executing, a
 * prefetch being issued, a migration transfer, a stall on the critical
 * path, an interval boundary, a policy decision — is recorded as one
 * fixed-size POD Event.  Events are cheap to emit (a struct copy into
 * a ring buffer, no allocation, no formatting) so the instrumented hot
 * paths stay hot; all interpretation (names, track layout, JSON)
 * happens at export time.
 */

#ifndef SENTINEL_TELEMETRY_EVENT_HH
#define SENTINEL_TELEMETRY_EVENT_HH

#include <cstdint>

#include "common/units.hh"

namespace sentinel::telemetry {

/** What happened.  The taxonomy mirrors the runtime's moving parts. */
enum class EventType : std::uint8_t {
    StepBegin,      ///< training step starts (id = step index)
    StepEnd,        ///< training step ends (id = step index)
    OpBegin,        ///< operation starts executing (id = OpId)
    OpEnd,          ///< operation finished (id = OpId)
    Stall,          ///< exposed migration wait (dur = stall length)
    PolicyDecision, ///< policy overhead charged (dur = cost)
    IntervalBegin,  ///< migration interval boundary (id = interval)
    PrefetchIssued, ///< policy queued a tensor promotion (id = TensorId)
    Promotion,      ///< slow->fast DMA batch (dur = transfer window)
    Demotion,       ///< fast->slow DMA batch (dur = transfer window)
    DivergenceDetected, ///< observed step diverged from plan (id = step)
    Replan,         ///< mid-training re-plan (id = step, dur = cost)
    SloBurnAlert,   ///< SLO error budget burning too fast (id = job,
                    ///< bytes = burn rate in 1/1000ths)
};

constexpr std::size_t kNumEventTypes = 13;

/** Stable lower-case name of @p t (used in exports and tests). */
const char *eventTypeName(EventType t);

/**
 * One telemetry record.  32 bytes, trivially copyable; the meaning of
 * `id` and `bytes` depends on `type` (see EventType comments).
 */
struct Event {
    Tick ts = 0;              ///< simulated time of the event (ns)
    Tick dur = 0;             ///< duration for span-like events (ns)
    std::uint64_t bytes = 0;  ///< payload size, when meaningful
    std::uint32_t id = 0;     ///< op / tensor / interval / step id
    EventType type = EventType::StepBegin;
    std::uint8_t track = 0;   ///< reserved channel hint (0 = default)
};

static_assert(sizeof(Event) <= 32, "Event must stay ring-buffer small");

} // namespace sentinel::telemetry

#endif // SENTINEL_TELEMETRY_EVENT_HH
