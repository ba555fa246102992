/**
 * @file
 * Golden-trace test: a tiny three-layer graph run under the Sentinel
 * policy with telemetry attached must export a valid Chrome-trace JSON
 * — structurally parseable, timestamps monotonic per track, begin/end
 * pairs balanced — containing op, migration, and interval events.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "profile/profiler.hh"
#include "telemetry/audit.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/session.hh"

using namespace sentinel;

namespace {

/**
 * Three layers: two forward convolutions and one backward layer that
 * re-reads the layer-0 activation (the cross-layer reuse that makes
 * Sentinel prefetch/demote once the fast tier is undersized).
 */
df::Graph
makeThreeLayerGraph()
{
    using namespace df;
    Graph g("tiny3", 4);

    const std::uint64_t kAct = 32 * 4096;
    const std::uint64_t kW = 2 * 4096;

    TensorId input = g.addTensor("input", kAct, TensorKind::Input, true);
    TensorId w0 = g.addTensor("w0", kW, TensorKind::Weight, true);
    TensorId w1 = g.addTensor("w1", kW, TensorKind::Weight, true);
    TensorId a0 = g.addTensor("a0", kAct, TensorKind::Activation);
    TensorId a1 = g.addTensor("a1", kAct, TensorKind::Activation);
    TensorId g0 = g.addTensor("g0", kAct, TensorKind::ActivationGrad);

    auto r = [](TensorId t, std::uint64_t bytes) {
        return TensorUse{ t, false, bytes, 1.0 };
    };
    auto w = [](TensorId t, std::uint64_t bytes) {
        return TensorUse{ t, true, bytes, 1.0 };
    };

    g.addOp("l0/conv", OpType::Conv2d, 0, 4e7,
            { r(input, kAct), r(w0, kW), w(a0, kAct) });
    g.addOp("l1/conv", OpType::Conv2d, 1, 4e7,
            { r(a0, kAct), r(w1, kW), w(a1, kAct) });
    g.addOp("l1/bwd", OpType::ConvBackward, 2, 6e7,
            { r(a1, kAct), r(a0, kAct), r(w1, kW), w(g0, kAct) });
    g.addOp("l0/update", OpType::SgdUpdate, 2, 1e6,
            { r(g0, kAct), w(w0, kW) });
    g.finalize();
    return g;
}

/** Scan for balanced braces/brackets, string- and escape-aware. */
bool
jsonStructurallyValid(const std::string &s)
{
    int braces = 0;
    int brackets = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : s) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
            ++braces;
            break;
          case '}':
            if (--braces < 0)
                return false;
            break;
          case '[':
            ++brackets;
            break;
          case ']':
            if (--brackets < 0)
                return false;
            break;
          default:
            break;
        }
    }
    return braces == 0 && brackets == 0 && !in_string;
}

/** One trace record, as parsed back out of the exported JSON. */
struct ParsedEvent {
    std::string ph;
    std::string cat;
    int pid = 0;
    int tid = 0;
    double ts = -1.0;
};

std::string
extractString(const std::string &line, const std::string &key)
{
    std::string pat = "\"" + key + "\":\"";
    auto pos = line.find(pat);
    if (pos == std::string::npos)
        return {};
    pos += pat.size();
    auto end = line.find('"', pos);
    return line.substr(pos, end - pos);
}

double
extractNumber(const std::string &line, const std::string &key,
              double fallback)
{
    std::string pat = "\"" + key + "\":";
    auto pos = line.find(pat);
    if (pos == std::string::npos)
        return fallback;
    return std::strtod(line.c_str() + pos + pat.size(), nullptr);
}

std::vector<ParsedEvent>
parseTraceLines(const std::string &json)
{
    std::vector<ParsedEvent> out;
    std::size_t start = 0;
    while (start < json.size()) {
        auto nl = json.find('\n', start);
        if (nl == std::string::npos)
            nl = json.size();
        std::string line = json.substr(start, nl - start);
        start = nl + 1;
        if (line.find("\"ph\":\"") == std::string::npos)
            continue;
        ParsedEvent e;
        e.ph = extractString(line, "ph");
        e.cat = extractString(line, "cat");
        e.pid = static_cast<int>(extractNumber(line, "pid", 0));
        e.tid = static_cast<int>(extractNumber(line, "tid", -1));
        e.ts = extractNumber(line, "ts", -1.0);
        out.push_back(e);
    }
    return out;
}

/**
 * Process label with every character class the metadata escaper must
 * handle: quote, backslash, newline, and a control byte.
 */
const char kHostileLabel[] = "tiny\"3\\run\nname\x01";

std::string
runTinyGraphTrace(telemetry::Session &session, telemetry::AuditLog &audit)
{
    df::Graph graph = makeThreeLayerGraph();
    // Fast tier sized well under peak so migration must happen.
    std::uint64_t fast =
        mem::roundUpToPages(graph.peakMemoryBytes() / 3);
    auto cfg = core::RuntimeConfig::optane(fast);

    mem::HeterogeneousMemory prof_hm(cfg.tierChain(), cfg.linkChain());
    prof::Profiler profiler(cfg.profiler);
    auto profile = profiler.profile(graph, prof_hm, cfg.exec);

    core::SentinelPolicy policy(profile.db);
    policy.setTelemetry(&session);
    policy.setAudit(&audit);
    mem::HeterogeneousMemory hm(cfg.tierChain(), cfg.linkChain());
    hm.setTelemetry(&session);
    df::Executor ex(graph, hm, cfg.exec, policy);
    ex.setTelemetry(&session);
    ex.run(6);

    telemetry::ChromeTraceOptions opts;
    opts.audit = &audit;
    opts.process_label = kHostileLabel;
    return telemetry::chromeTraceJson(session.events(), opts);
}

class ChromeTraceGolden : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        session_ = new telemetry::Session;
        audit_ = new telemetry::AuditLog;
        json_ = new std::string(runTinyGraphTrace(*session_, *audit_));
    }
    static void
    TearDownTestSuite()
    {
        delete json_;
        delete audit_;
        delete session_;
        json_ = nullptr;
        audit_ = nullptr;
        session_ = nullptr;
    }

    static telemetry::Session *session_;
    static telemetry::AuditLog *audit_;
    static std::string *json_;
};

telemetry::Session *ChromeTraceGolden::session_ = nullptr;
telemetry::AuditLog *ChromeTraceGolden::audit_ = nullptr;
std::string *ChromeTraceGolden::json_ = nullptr;

TEST_F(ChromeTraceGolden, NothingDroppedAtDefaultCapacity)
{
    EXPECT_EQ(session_->events().dropped(), 0u);
    EXPECT_GT(session_->events().size(), 0u);
}

TEST_F(ChromeTraceGolden, JsonIsStructurallyValid)
{
    EXPECT_TRUE(jsonStructurallyValid(*json_));
    EXPECT_NE(json_->find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json_->find("\"process_name\""), std::string::npos);
    EXPECT_NE(json_->find("\"thread_name\""), std::string::npos);
}

TEST_F(ChromeTraceGolden, TimestampsMonotonicPerTrack)
{
    auto events = parseTraceLines(*json_);
    ASSERT_FALSE(events.empty());
    std::map<std::pair<int, int>, double> last;
    for (const auto &e : events) {
        if (e.ph == "M")
            continue;
        ASSERT_GE(e.ts, 0.0);
        auto key = std::make_pair(e.pid, e.tid);
        auto it = last.find(key);
        if (it != last.end()) {
            EXPECT_GE(e.ts, it->second)
                << "track (" << e.pid << "," << e.tid << ")";
        }
        last[key] = e.ts;
    }
}

TEST_F(ChromeTraceGolden, BeginEndPairsBalancedPerTrack)
{
    auto events = parseTraceLines(*json_);
    std::map<std::pair<int, int>, int> depth;
    for (const auto &e : events) {
        auto key = std::make_pair(e.pid, e.tid);
        if (e.ph == "B") {
            ++depth[key];
        } else if (e.ph == "E") {
            --depth[key];
            EXPECT_GE(depth[key], 0)
                << "unmatched E on track (" << e.pid << "," << e.tid
                << ")";
        }
    }
    for (const auto &kv : depth)
        EXPECT_EQ(kv.second, 0)
            << "unclosed B on track (" << kv.first.first << ","
            << kv.first.second << ")";
}

TEST_F(ChromeTraceGolden, ContainsOpMigrationAndIntervalEvents)
{
    auto events = parseTraceLines(*json_);
    bool has_op = false;
    bool has_migration = false;
    bool has_interval = false;
    bool has_step = false;
    for (const auto &e : events) {
        if (e.cat == "op_begin")
            has_op = true;
        if (e.cat == "promotion" || e.cat == "demotion")
            has_migration = true;
        if (e.cat == "interval_begin")
            has_interval = true;
        if (e.cat == "step_begin")
            has_step = true;
    }
    EXPECT_TRUE(has_op);
    EXPECT_TRUE(has_migration);
    EXPECT_TRUE(has_interval);
    EXPECT_TRUE(has_step);
}

TEST_F(ChromeTraceGolden, HostileMetadataNamesAreEscaped)
{
    // The raw label must never appear unescaped (its quote would
    // terminate the JSON string early)...
    EXPECT_EQ(json_->find(kHostileLabel), std::string::npos);
    // ...and the escaped spelling must.
    EXPECT_NE(json_->find("tiny\\\"3\\\\run\\nname\\u0001"),
              std::string::npos);
}

TEST_F(ChromeTraceGolden, AuditReasonsJoinMigrationEvents)
{
    ASSERT_GT(audit_->size(), 0u);
    ASSERT_EQ(audit_->dropped(), 0u);

    // Walk the raw lines: every migration slice that the audit log can
    // explain must carry a valid reason code and the deciding tensor.
    int with_reason = 0;
    std::size_t start = 0;
    while (start < json_->size()) {
        auto nl = json_->find('\n', start);
        if (nl == std::string::npos)
            nl = json_->size();
        std::string line = json_->substr(start, nl - start);
        start = nl + 1;
        std::string cat = extractString(line, "cat");
        if (cat != "promotion" && cat != "demotion")
            continue;
        std::string reason = extractString(line, "reason");
        if (reason.empty())
            continue;
        ++with_reason;
        bool valid = false;
        for (std::size_t i = 0; i < telemetry::kNumAuditReasons; ++i)
            valid = valid ||
                    reason == telemetry::auditReasonName(
                                  static_cast<telemetry::AuditReason>(i));
        EXPECT_TRUE(valid) << "unknown reason code '" << reason << "'";
        EXPECT_NE(line.find("\"tensor\":"), std::string::npos) << line;
    }
    EXPECT_GT(with_reason, 0)
        << "no migration event carried an audit reason";
}

TEST(ChromeTraceEmpty, EmptySinkStillWritesValidJson)
{
    telemetry::EventSink sink(4);
    std::string json = telemetry::chromeTraceJson(sink);
    EXPECT_TRUE(jsonStructurallyValid(json));
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

TEST(ChromeTraceLabeler, LabelerOverridesDefaultNames)
{
    telemetry::EventSink sink(8);
    sink.emit(telemetry::Event{ 100, 50, 4096, 7,
                                telemetry::EventType::OpBegin, 0 });
    sink.emit(telemetry::Event{ 150, 0, 0, 7,
                                telemetry::EventType::OpEnd, 0 });
    telemetry::ChromeTraceOptions opts;
    opts.labeler = [](const telemetry::Event &e) {
        return e.type == telemetry::EventType::OpBegin
                   ? std::string("custom \"op\" name")
                   : std::string();
    };
    std::string json = telemetry::chromeTraceJson(sink, opts);
    EXPECT_TRUE(jsonStructurallyValid(json));
    // Quote inside the label must be escaped, default name kept for
    // the unlabeled end event.
    EXPECT_NE(json.find("custom \\\"op\\\" name"), std::string::npos);
    EXPECT_NE(json.find("\"op 7\""), std::string::npos);
}

} // namespace
