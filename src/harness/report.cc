#include "harness/report.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/percentile.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "telemetry/chrome_trace.hh"

namespace sentinel::harness {

namespace {

using telemetry::AttrBucket;
using telemetry::AttrComponent;
using telemetry::AttributionEngine;
using telemetry::AuditLog;
using telemetry::AuditRecord;
using telemetry::TensorAttr;

double
ms(Tick t)
{
    return toMillis(t);
}

std::string
tensorName(const df::Graph &graph, std::uint32_t tensor)
{
    if (tensor == telemetry::kAttrNoTensor)
        return "(unattributed)";
    if (tensor < graph.numTensors())
        return graph.tensor(tensor).name;
    return strprintf("t%u", tensor);
}

struct Offender {
    std::uint32_t tensor;
    TensorAttr attr;
};

/** Tensors by exposed+alloc stall time, worst first; stable order. */
std::vector<Offender>
rankOffenders(const AttributionEngine &attr)
{
    std::vector<Offender> out;
    for (const auto &kv : attr.byTensor()) {
        if (kv.second.exposedMigration() == 0 &&
            kv.second.stall_events == 0)
            continue;
        out.push_back({ kv.first, kv.second });
    }
    std::sort(out.begin(), out.end(),
              [](const Offender &a, const Offender &b) {
                  Tick ta = a.attr.exposedMigration();
                  Tick tb = b.attr.exposedMigration();
                  if (ta != tb)
                      return ta > tb;
                  if (a.attr.stall_events != b.attr.stall_events)
                      return a.attr.stall_events > b.attr.stall_events;
                  return a.tensor < b.tensor;
              });
    return out;
}

/** "kEvictForSpace @step 4" for the offender table, or "-". */
std::string
lastDecision(const AuditLog &audit, std::uint32_t tensor)
{
    if (tensor == telemetry::kAttrNoTensor)
        return "-";
    const AuditRecord *r = audit.lastForTensor(tensor);
    if (!r)
        return "-";
    return strprintf("%s @step %d", auditReasonName(r->reason), r->step);
}

std::string
intervalLabel(int k)
{
    return k < 0 ? std::string("-") : strprintf("%d", k);
}

void
appendBucketJson(std::ostringstream &os, const AttrBucket &b)
{
    os << "\"execution_ns\":" << b.component(AttrComponent::Execution)
       << ",\"exposed_ns\":" << b.component(AttrComponent::Exposed)
       << ",\"alloc_ns\":" << b.component(AttrComponent::Alloc)
       << ",\"policy_ns\":" << b.component(AttrComponent::Policy)
       << ",\"fault_ns\":" << b.component(AttrComponent::Fault)
       << ",\"recompute_ns\":" << b.component(AttrComponent::Recompute)
       << ",\"stalls\":" << b.stall_events
       << ",\"promoted_bytes\":" << b.promoted_bytes
       << ",\"demoted_bytes\":" << b.demoted_bytes;
}

} // namespace

std::string
buildStallReport(const df::Graph &graph, const AttributionEngine &attr,
                 const AuditLog &audit, const ReportOptions &opts)
{
    std::ostringstream os;

    // StepStats' own totals, as claimed by the executor at each
    // endStep — the numbers the attribution must reproduce exactly.
    Tick claimed_exposed = 0;
    std::uint64_t claimed_stalls = 0;
    for (const auto &sa : attr.steps()) {
        claimed_exposed += sa.exposed_migration;
        claimed_stalls += sa.num_stalls;
    }
    AttrBucket total = attr.totals();

    os << strprintf("Stall attribution over %zu steps: attributed "
                    "exposed-migration %.3f ms vs StepStats %.3f ms "
                    "(%s), %llu stall events vs %llu (%s)\n",
                    attr.steps().size(), ms(total.exposedMigration()),
                    ms(claimed_exposed),
                    total.exposedMigration() == claimed_exposed
                        ? "exact"
                        : "MISMATCH",
                    static_cast<unsigned long long>(total.stall_events),
                    static_cast<unsigned long long>(claimed_stalls),
                    total.stall_events == claimed_stalls ? "exact"
                                                         : "MISMATCH");
    if (!attr.steps().empty()) {
        std::vector<double> exposed_ms;
        for (const auto &sa : attr.steps())
            exposed_ms.push_back(ms(sa.exposed_migration));
        PercentileSummary pct =
            PercentileSummary::of(std::move(exposed_ms));
        os << strprintf("Per-step exposed migration: p50 %.3f ms, "
                        "p95 %.3f ms, p99 %.3f ms over %llu steps\n",
                        pct.p50, pct.p95, pct.p99,
                        static_cast<unsigned long long>(pct.count));
    }
    os << "\n";

    // --- Per-interval breakdown ---------------------------------------
    {
        Table t("Per-interval breakdown (all steps)",
                { "interval", "exec (ms)", "exposed (ms)", "alloc (ms)",
                  "policy (ms)", "fault (ms)", "recomp (ms)", "stalls",
                  "promoted (MB)", "demoted (MB)", "total (ms)" });
        for (const auto &[interval, b] : attr.byInterval()) {
            t.row()
                .cell(intervalLabel(interval))
                .cell(ms(b.component(AttrComponent::Execution)), 3)
                .cell(ms(b.component(AttrComponent::Exposed)), 3)
                .cell(ms(b.component(AttrComponent::Alloc)), 3)
                .cell(ms(b.component(AttrComponent::Policy)), 3)
                .cell(ms(b.component(AttrComponent::Fault)), 3)
                .cell(ms(b.component(AttrComponent::Recompute)), 3)
                .cell(b.stall_events)
                .cell(static_cast<double>(b.promoted_bytes) / 1e6, 1)
                .cell(static_cast<double>(b.demoted_bytes) / 1e6, 1)
                .cell(ms(b.total()), 3);
        }
        t.row()
            .cell("all")
            .cell(ms(total.component(AttrComponent::Execution)), 3)
            .cell(ms(total.component(AttrComponent::Exposed)), 3)
            .cell(ms(total.component(AttrComponent::Alloc)), 3)
            .cell(ms(total.component(AttrComponent::Policy)), 3)
            .cell(ms(total.component(AttrComponent::Fault)), 3)
            .cell(ms(total.component(AttrComponent::Recompute)), 3)
            .cell(total.stall_events)
            .cell(static_cast<double>(total.promoted_bytes) / 1e6, 1)
            .cell(static_cast<double>(total.demoted_bytes) / 1e6, 1)
            .cell(ms(total.total()), 3);
        t.print(os);
    }
    os << "\n";

    // --- Top-K offenders ----------------------------------------------
    {
        std::vector<Offender> offenders = rankOffenders(attr);
        std::size_t k = std::min<std::size_t>(
            offenders.size(),
            opts.top_k > 0 ? static_cast<std::size_t>(opts.top_k) : 0);
        Table t(strprintf("Top stall offenders (%zu of %zu tensors with "
                          "stall time)",
                          k, offenders.size()),
                { "tensor", "name", "kind", "exposed (ms)", "alloc (ms)",
                  "stalls", "last decision" });
        for (std::size_t i = 0; i < k; ++i) {
            const Offender &o = offenders[i];
            t.row()
                .cell(o.tensor == telemetry::kAttrNoTensor
                          ? std::string("-")
                          : strprintf("%u", o.tensor))
                .cell(tensorName(graph, o.tensor))
                .cell(o.tensor < graph.numTensors()
                          ? df::tensorKindName(graph.tensor(o.tensor).kind)
                          : "-")
                .cell(ms(o.attr.exposed), 3)
                .cell(ms(o.attr.alloc), 3)
                .cell(o.attr.stall_events)
                .cell(lastDecision(audit, o.tensor));
        }
        t.print(os);
    }

    os << strprintf("\naudit log: %zu decisions recorded, %llu dropped\n",
                    audit.size(),
                    static_cast<unsigned long long>(audit.dropped()));
    return os.str();
}

std::string
stallReportJson(const df::Graph &graph, const AttributionEngine &attr,
                const AuditLog &audit, const ReportOptions &opts)
{
    std::ostringstream os;
    Tick claimed_exposed = 0;
    std::uint64_t claimed_stalls = 0;
    for (const auto &sa : attr.steps()) {
        claimed_exposed += sa.exposed_migration;
        claimed_stalls += sa.num_stalls;
    }
    AttrBucket total = attr.totals();

    os << "{\"steps\":" << attr.steps().size()
       << ",\"exact\":" << (attr.allExact() ? "true" : "false")
       << ",\"claimed\":{\"exposed_migration_ns\":" << claimed_exposed
       << ",\"num_stalls\":" << claimed_stalls << "}"
       << ",\"totals\":{";
    appendBucketJson(os, total);
    os << "}";

    os << ",\"intervals\":[";
    bool first = true;
    for (const auto &kv : attr.byInterval()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"interval\":" << kv.first << ",";
        appendBucketJson(os, kv.second);
        os << "}";
    }
    os << "]";

    os << ",\"layers\":[";
    first = true;
    for (const auto &kv : attr.byLayer()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"layer\":" << kv.first << ",";
        appendBucketJson(os, kv.second);
        os << "}";
    }
    os << "]";

    std::vector<Offender> offenders = rankOffenders(attr);
    std::size_t k = std::min<std::size_t>(
        offenders.size(),
        opts.top_k > 0 ? static_cast<std::size_t>(opts.top_k) : 0);
    os << ",\"offenders\":[";
    for (std::size_t i = 0; i < k; ++i) {
        const Offender &o = offenders[i];
        if (i > 0)
            os << ",";
        os << "{\"tensor\":" << static_cast<std::int64_t>(
                                    o.tensor == telemetry::kAttrNoTensor
                                        ? -1
                                        : static_cast<std::int64_t>(
                                              o.tensor))
           << ",\"name\":\""
           << telemetry::jsonEscape(tensorName(graph, o.tensor))
           << "\",\"exposed_ns\":" << o.attr.exposed
           << ",\"alloc_ns\":" << o.attr.alloc
           << ",\"stalls\":" << o.attr.stall_events;
        const AuditRecord *r =
            o.tensor == telemetry::kAttrNoTensor
                ? nullptr
                : audit.lastForTensor(o.tensor);
        if (r)
            os << ",\"last_reason\":\"" << auditReasonName(r->reason)
               << "\",\"last_step\":" << r->step;
        os << "}";
    }
    os << "]";

    os << ",\"audit\":{\"records\":" << audit.size()
       << ",\"dropped\":" << audit.dropped() << "}}";
    os << "\n";
    return os.str();
}

std::string
auditHistory(const df::Graph &graph, const AuditLog &audit,
             std::uint32_t tensor)
{
    std::ostringstream os;
    std::vector<AuditRecord> records = audit.forTensor(tensor);
    Table t(strprintf("Audit history of tensor %u (%s): %zu decisions",
                      tensor, tensorName(graph, tensor).c_str(),
                      records.size()),
            { "time (ms)", "step", "layer", "interval", "mil", "gen",
              "reason", "bytes" });
    for (const AuditRecord &r : records) {
        t.row()
            .cell(ms(r.ts), 3)
            .cell(r.step)
            .cell(static_cast<int>(r.layer))
            .cell(intervalLabel(r.interval))
            .cell(static_cast<int>(r.mil))
            .cell(static_cast<int>(r.plan_gen))
            .cell(auditReasonName(r.reason))
            .cell(static_cast<std::uint64_t>(r.bytes));
    }
    t.print(os);
    return os.str();
}

} // namespace sentinel::harness
