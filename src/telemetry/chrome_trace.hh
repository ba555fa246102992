/**
 * @file
 * Chrome-trace (chrome://tracing / Perfetto "Trace Event Format")
 * export of a telemetry session.
 *
 * Track layout:
 *
 *   pid 1 "executor"   tid 1 "steps"     step spans + interval markers
 *                      tid 2 "ops"       B/E pairs, one per operation
 *                      tid 3 "stalls"    exposed-migration waits (X)
 *                      tid 4 "overhead"  policy time, divergence, replan
 *   pid 2 "memory"     tid 1 "promote"   slow->fast DMA batches (X)
 *                      tid 2 "demote"    fast->slow DMA batches (X)
 *                      tid 3 "prefetch"  policy prefetch intents (i)
 *
 * Timestamps convert from Ticks (ns) to the format's microseconds.
 * Event names default to eventTypeName() + id; callers that know the
 * graph pass a labeler to substitute op/tensor names.
 */

#ifndef SENTINEL_TELEMETRY_CHROME_TRACE_HH
#define SENTINEL_TELEMETRY_CHROME_TRACE_HH

#include <functional>
#include <ostream>
#include <string>

#include "telemetry/audit.hh"
#include "telemetry/event_sink.hh"

namespace sentinel::telemetry {

/**
 * Optional name resolver: returns a display name for @p e, or an
 * empty string to fall back to the default naming.
 */
using EventLabeler = std::function<std::string(const Event &e)>;

/** Optional attachments for the exporter. */
struct ChromeTraceOptions {
    /** Name resolver (empty result falls back to default names). */
    EventLabeler labeler;

    /**
     * Decision audit log to join against: each Promotion/Demotion
     * event whose timestamp matches a same-direction AuditRecord gains
     * `"reason"` and `"tensor"` args, so the trace view and the audit
     * log tell one story.
     */
    const AuditLog *audit = nullptr;

    /**
     * Display name for the executor process track (pid 1); empty keeps
     * the default "executor".  Escaped on output — model names and
     * user-supplied labels are safe verbatim.
     */
    std::string process_label;
};

/** JSON string-literal escaping ('"', '\\', control chars).  Shared
 *  by every JSON writer in the simulator (traces, stall reports). */
std::string jsonEscape(const std::string &s);

/** Write the retained events of @p sink as Chrome-trace JSON. */
void writeChromeTrace(const EventSink &sink, std::ostream &os,
                      const ChromeTraceOptions &opts = {});

/** Same, into a string (tests, small traces). */
std::string chromeTraceJson(const EventSink &sink,
                            const ChromeTraceOptions &opts = {});

/** Write @p sink's events to @p path; @return false on I/O failure. */
bool saveChromeTrace(const EventSink &sink, const std::string &path,
                     const ChromeTraceOptions &opts = {});

} // namespace sentinel::telemetry

#endif // SENTINEL_TELEMETRY_CHROME_TRACE_HH
