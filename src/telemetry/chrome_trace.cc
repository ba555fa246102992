#include "telemetry/chrome_trace.hh"

#include <sstream>

#include "common/logging.hh"

namespace sentinel::telemetry {

namespace {

struct TrackRef {
    int pid;
    int tid;
};

TrackRef
trackOf(EventType t)
{
    switch (t) {
      case EventType::StepBegin:
      case EventType::StepEnd:
      case EventType::IntervalBegin:
        return { 1, 1 };
      case EventType::OpBegin:
      case EventType::OpEnd:
        return { 1, 2 };
      case EventType::Stall:
        return { 1, 3 };
      case EventType::PolicyDecision:
      case EventType::DivergenceDetected:
      case EventType::Replan:
      case EventType::SloBurnAlert:
        return { 1, 4 };
      case EventType::Promotion:
        return { 2, 1 };
      case EventType::Demotion:
        return { 2, 2 };
      case EventType::PrefetchIssued:
        return { 2, 3 };
    }
    return { 1, 1 };
}

std::string
defaultName(const Event &e)
{
    switch (e.type) {
      case EventType::StepBegin:
      case EventType::StepEnd:
        return strprintf("step %u", e.id);
      case EventType::OpBegin:
      case EventType::OpEnd:
        return strprintf("op %u", e.id);
      case EventType::IntervalBegin:
        return strprintf("interval %u", e.id);
      case EventType::PrefetchIssued:
        return strprintf("prefetch t%u", e.id);
      case EventType::Stall:
        return "stall";
      case EventType::PolicyDecision:
        return "policy";
      case EventType::Promotion:
        return "promote";
      case EventType::Demotion:
        return "demote";
      case EventType::DivergenceDetected:
        return strprintf("divergence @step %u", e.id);
      case EventType::Replan:
        return strprintf("replan @step %u", e.id);
      case EventType::SloBurnAlert:
        return strprintf("slo burn %.1fx job %u",
                         static_cast<double>(e.bytes) / 1e3, e.id);
    }
    return "event";
}

/** Ticks (ns) -> trace microseconds, keeping sub-us precision. */
std::string
toUs(Tick t)
{
    return strprintf("%.3f", static_cast<double>(t) / 1e3);
}

void
writeMetadata(std::ostream &os, const std::string &process_label)
{
    struct Meta {
        int pid;
        int tid; ///< 0 = process_name record
        const char *name;
    };
    static const Meta metas[] = {
        { 1, 0, "executor" },  { 1, 1, "steps" },   { 1, 2, "ops" },
        { 1, 3, "stalls" },    { 1, 4, "overhead" }, { 2, 0, "memory" },
        { 2, 1, "promote" },   { 2, 2, "demote" },  { 2, 3, "prefetch" },
    };
    for (const Meta &m : metas) {
        // Names pass through jsonEscape like everything else: the
        // executor label can be a user-supplied model name carrying
        // quotes or backslashes.
        std::string name = m.name;
        if (m.pid == 1 && m.tid == 0 && !process_label.empty())
            name = process_label;
        name = jsonEscape(name);
        if (m.tid == 0) {
            os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
               << m.pid << ",\"tid\":0,\"args\":{\"name\":\"" << name
               << "\"}},\n";
        } else {
            os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
               << m.pid << ",\"tid\":" << m.tid
               << ",\"args\":{\"name\":\"" << name << "\"}},\n";
        }
    }
}

void
writeEvent(std::ostream &os, const Event &e, const ChromeTraceOptions &opts,
           bool last)
{
    std::string name;
    if (opts.labeler)
        name = opts.labeler(e);
    if (name.empty())
        name = defaultName(e);
    name = jsonEscape(name);

    TrackRef tr = trackOf(e.type);
    const char *ph = "X";
    switch (e.type) {
      case EventType::StepBegin:
      case EventType::OpBegin:
        ph = "B";
        break;
      case EventType::StepEnd:
      case EventType::OpEnd:
        ph = "E";
        break;
      case EventType::IntervalBegin:
      case EventType::PrefetchIssued:
      case EventType::DivergenceDetected:
      case EventType::SloBurnAlert:
        ph = "i";
        break;
      case EventType::Replan:
        // Replans carry their planner cost as a span; a zero-cost
        // replan still shows as a zero-width slice on the track.
        ph = "X";
        break;
      default:
        break;
    }

    os << "{\"name\":\"" << name << "\",\"cat\":\""
       << eventTypeName(e.type) << "\",\"ph\":\"" << ph
       << "\",\"ts\":" << toUs(e.ts) << ",\"pid\":" << tr.pid
       << ",\"tid\":" << tr.tid;
    if (ph[0] == 'X')
        os << ",\"dur\":" << toUs(e.dur);
    if (ph[0] == 'i')
        os << ",\"s\":\"t\"";
    bool migration = e.type == EventType::Promotion ||
                     e.type == EventType::Demotion;
    os << ",\"args\":{";
    if (e.bytes != 0 || migration)
        os << "\"bytes\":" << e.bytes << ",";
    os << "\"id\":" << e.id;
    if (migration && opts.audit) {
        // Join the migration slice with the decision that caused it
        // (shared timestamp): the trace then answers "why" inline.
        const AuditRecord *r = opts.audit->matchMigration(
            e.ts, e.type == EventType::Promotion);
        if (r) {
            os << ",\"reason\":\"" << auditReasonName(r->reason)
               << "\",\"tensor\":" << r->tensor;
        }
    }
    os << "}";
    os << "}" << (last ? "\n" : ",\n");
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
writeChromeTrace(const EventSink &sink, std::ostream &os,
                 const ChromeTraceOptions &opts)
{
    std::vector<Event> events = sink.snapshot();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    writeMetadata(os, opts.process_label);
    for (std::size_t i = 0; i < events.size(); ++i)
        writeEvent(os, events[i], opts, i + 1 == events.size());
    if (events.empty()) {
        // Terminate the metadata list: re-emit one harmless record
        // without the trailing comma so the array stays valid JSON.
        std::string name = opts.process_label.empty()
                               ? std::string("executor")
                               : opts.process_label;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":0,\"args\":{\"name\":\""
           << jsonEscape(name) << "\"}}\n";
    }
    os << "]}\n";
}

std::string
chromeTraceJson(const EventSink &sink, const ChromeTraceOptions &opts)
{
    std::ostringstream ss;
    writeChromeTrace(sink, ss, opts);
    return ss.str();
}

} // namespace sentinel::telemetry
