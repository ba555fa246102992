#include "telemetry/event.hh"

namespace sentinel::telemetry {

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::StepBegin:
        return "step_begin";
      case EventType::StepEnd:
        return "step_end";
      case EventType::OpBegin:
        return "op_begin";
      case EventType::OpEnd:
        return "op_end";
      case EventType::Stall:
        return "stall";
      case EventType::PolicyDecision:
        return "policy_decision";
      case EventType::IntervalBegin:
        return "interval_begin";
      case EventType::PrefetchIssued:
        return "prefetch_issued";
      case EventType::Promotion:
        return "promotion";
      case EventType::Demotion:
        return "demotion";
      case EventType::DivergenceDetected:
        return "divergence";
      case EventType::Replan:
        return "replan";
      case EventType::SloBurnAlert:
        return "slo_burn_alert";
    }
    return "unknown";
}

} // namespace sentinel::telemetry
