/**
 * @file
 * Property tests for stall attribution and the report surface.
 *
 * The load-bearing invariant: the attributed components sum EXACTLY
 * (tick for tick) to the StepStats totals the executor reported —
 * attribution is a decomposition, never an estimate.  On top of that,
 * a stalling Sentinel run's rendered report must name at least one
 * offending tensor with the audit reason behind its placement.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"

using namespace sentinel;

namespace {

struct CaseResult {
    std::vector<df::StepStats> stats;
    telemetry::AttributionEngine attr;
    telemetry::AuditLog audit;
};

/** One Sentinel run of a small model with attribution and audit on. */
std::unique_ptr<CaseResult>
runCase()
{
    auto out = std::make_unique<CaseResult>();

    df::Graph graph = models::makeModel("resnet20", 8);
    std::uint64_t fast =
        mem::roundUpToPages(graph.peakMemoryBytes() / 5);
    auto cfg = core::RuntimeConfig::optane(fast);

    mem::HeterogeneousMemory prof_hm(cfg.tierChain(), cfg.linkChain());
    prof::Profiler profiler(cfg.profiler);
    auto profile = profiler.profile(graph, prof_hm, cfg.exec);

    core::SentinelPolicy policy(profile.db);
    policy.setAudit(&out->audit);
    mem::HeterogeneousMemory hm(cfg.tierChain(), cfg.linkChain());
    hm.setAttribution(&out->attr);
    df::Executor ex(graph, hm, cfg.exec, policy);
    ex.setAttribution(&out->attr);
    out->stats = ex.run(4);
    return out;
}

TEST(AttributionProperty, ExactAgainstStepStats)
{
    auto r = runCase();
    // endStep() would already have panicked on drift; re-assert the
    // identities from the outside against the executor's numbers.
    ASSERT_EQ(r->attr.steps().size(), r->stats.size());
    EXPECT_TRUE(r->attr.allExact());
    for (std::size_t i = 0; i < r->stats.size(); ++i) {
        const auto &sa = r->attr.steps()[i];
        const auto &ss = r->stats[i];
        EXPECT_EQ(sa.bucket.total(), ss.step_time) << "step " << i;
        EXPECT_EQ(sa.bucket.exposedMigration(), ss.exposed_migration)
            << "step " << i;
        EXPECT_EQ(sa.bucket.stall_events, ss.num_stalls) << "step " << i;
    }
    // The decomposition must actually be attributing stalls here, not
    // passing vacuously on a stall-free run.
    EXPECT_GT(r->attr.totals().exposedMigration(), 0);
    EXPECT_GT(r->audit.size(), 0u);
}

class ReportRendering : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        case_ = runCase().release();
        graph_ = new df::Graph(models::makeModel("resnet20", 8));
    }
    static void
    TearDownTestSuite()
    {
        delete graph_;
        delete case_;
        graph_ = nullptr;
        case_ = nullptr;
    }

    static CaseResult *case_;
    static df::Graph *graph_;
};

CaseResult *ReportRendering::case_ = nullptr;
df::Graph *ReportRendering::graph_ = nullptr;

TEST_F(ReportRendering, NamesAnOffenderWithReasonCode)
{
    std::string report =
        harness::buildStallReport(*graph_, case_->attr, case_->audit);
    EXPECT_NE(report.find("exact"), std::string::npos);
    EXPECT_EQ(report.find("MISMATCH"), std::string::npos);
    // At least one offender row resolves a reason code from the audit
    // log (any of the k* spellings).
    EXPECT_NE(report.find(" @step "), std::string::npos) << report;
    bool any_reason = false;
    for (std::size_t i = 0; i < telemetry::kNumAuditReasons; ++i)
        any_reason =
            any_reason ||
            report.find(telemetry::auditReasonName(
                static_cast<telemetry::AuditReason>(i))) !=
                std::string::npos;
    EXPECT_TRUE(any_reason) << report;
}

TEST_F(ReportRendering, AuditHistoryListsTensorDecisions)
{
    ASSERT_GT(case_->audit.size(), 0u);
    std::uint32_t tensor = telemetry::kAuditNoTensor;
    for (const auto &r : case_->audit.records()) {
        if (r.tensor != telemetry::kAuditNoTensor) {
            tensor = r.tensor;
            break;
        }
    }
    ASSERT_NE(tensor, telemetry::kAuditNoTensor);
    std::string hist =
        harness::auditHistory(*graph_, case_->audit, tensor);
    EXPECT_NE(hist.find(strprintf("tensor %u", tensor)),
              std::string::npos);
    EXPECT_NE(hist.find(telemetry::auditReasonName(
                  case_->audit.forTensor(tensor).front().reason)),
              std::string::npos);
}

TEST(ReportHarness, HarnessRunAttributesExactly)
{
    // End-to-end through the experiment harness (the path sentinel-cli
    // report takes): attribution + audit wired via ExperimentConfig.
    telemetry::AttributionEngine attr;
    telemetry::AuditLog audit;
    harness::ExperimentConfig cfg;
    cfg.model = "resnet32";
    cfg.batch = 16;
    cfg.steps = 5;
    cfg.warmup = 2;
    cfg.attribution = &attr;
    cfg.audit = &audit;
    harness::StepTrace tr = harness::runExperimentSteps(cfg, "sentinel");
    ASSERT_TRUE(tr.metrics.supported);
    ASSERT_EQ(attr.steps().size(), tr.steps.size());
    EXPECT_TRUE(attr.allExact());
    Tick exposed = 0;
    std::uint64_t stalls = 0;
    for (const auto &ss : tr.steps) {
        exposed += ss.exposed_migration;
        stalls += ss.num_stalls;
    }
    EXPECT_EQ(attr.totals().exposedMigration(), exposed);
    EXPECT_EQ(attr.totals().stall_events, stalls);
}

} // namespace
