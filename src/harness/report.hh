/**
 * @file
 * The stall-attribution / decision-audit reporting surface.
 *
 * Turns an AttributionEngine + AuditLog pair left behind by a run into
 * the three artifacts `sentinel-cli report` serves:
 *
 *  - buildStallReport(): the human-readable report — a per-interval
 *    breakdown table whose exposed-migration column sums EXACTLY to
 *    the run's StepStats total (the engine's invariant), followed by
 *    the top-K stall offenders, each named and annotated with the last
 *    policy decision that touched it;
 *  - stallReportJson(): the same data as machine-readable JSON
 *    (`--report-out`);
 *  - auditHistory(): every decision recorded for one tensor
 *    (`--tensor`), answering "why was tensor X evicted?".
 *
 * All three are pure functions of their inputs returning one string.
 */

#ifndef SENTINEL_HARNESS_REPORT_HH
#define SENTINEL_HARNESS_REPORT_HH

#include <cstdint>
#include <string>

#include "dataflow/graph.hh"
#include "telemetry/attribution.hh"
#include "telemetry/audit.hh"

namespace sentinel::harness {

struct ReportOptions {
    /** Offender rows to show / export. */
    int top_k = 5;
};

/** The full text report (tables + exactness summary + offenders). */
std::string buildStallReport(const df::Graph &graph,
                             const telemetry::AttributionEngine &attr,
                             const telemetry::AuditLog &audit,
                             const ReportOptions &opts = {});

/** The same data as JSON (one object; stable key order). */
std::string stallReportJson(const df::Graph &graph,
                            const telemetry::AttributionEngine &attr,
                            const telemetry::AuditLog &audit,
                            const ReportOptions &opts = {});

/** Decision history of one tensor, in decision order. */
std::string auditHistory(const df::Graph &graph,
                         const telemetry::AuditLog &audit,
                         std::uint32_t tensor);

} // namespace sentinel::harness

#endif // SENTINEL_HARNESS_REPORT_HH
