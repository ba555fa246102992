#include <gtest/gtest.h>

#include <algorithm>

#include "harness/cell.hh"
#include "harness/experiment.hh"
#include "mem/page.hh"
#include "models/registry.hh"
#include "telemetry/session.hh"

namespace sentinel::harness {
namespace {

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.model = "resnet20";
    cfg.batch = 8;
    cfg.steps = 8;
    cfg.warmup = 6;
    return cfg;
}

/**
 * Train @p policy on @p cfg with a session attached and check that the
 * session's run totals are read from the steps: exec.bytes_fast and
 * exec.bytes_slow sum StepStats' traffic, mem.fast_peak_bytes is the
 * largest step peak.
 */
void
expectSessionTotalsSumTheSteps(ExperimentConfig cfg,
                               const std::string &policy)
{
    telemetry::Session session;
    cfg.telemetry = &session;
    Cell cell(cfg, policy);
    ASSERT_TRUE(cell.supported());
    std::uint64_t fast = 0, slow = 0, peak = 0;
    for (const df::StepStats &s : cell.executor().run(cfg.steps)) {
        fast += s.bytes_fast;
        slow += s.bytes_slow;
        peak = std::max(peak, s.peak_fast_used);
    }
    // Every term is exercised: traffic lands in both tiers.
    ASSERT_GT(fast, 0u);
    ASSERT_GT(slow, 0u);
    ASSERT_GT(peak, 0u);
    telemetry::MetricRegistry &m = session.metrics();
    EXPECT_EQ(m.counter("exec.bytes_fast").value(), fast);
    EXPECT_EQ(m.counter("exec.bytes_slow").value(), slow);
    EXPECT_EQ(m.gauge("mem.fast_peak_bytes").max(), peak);
}

TEST(SessionTotals, CpuSentinelSumsTheSteps)
{
    expectSessionTotalsSumTheSteps(smallConfig(), "sentinel");
}

TEST(SessionTotals, GpuUnifiedMemorySumsTheSteps)
{
    ExperimentConfig cfg = smallConfig();
    cfg.platform = Platform::Gpu;
    expectSessionTotalsSumTheSteps(cfg, "um");
}

TEST(SessionTotals, ThreeTierLlmSumsTheSteps)
{
    ExperimentConfig cfg = smallConfig();
    cfg.model = "llm:tiny";
    cfg.batch = 2;
    cfg.tiers = 3;
    expectSessionTotalsSumTheSteps(cfg, "sentinel");
}

TEST(Harness, RunsEveryCpuPolicy)
{
    ExperimentConfig cfg = smallConfig();
    for (const auto &name : cpuPolicies()) {
        Metrics m = runExperiment(cfg, name);
        EXPECT_TRUE(m.supported) << name;
        EXPECT_GT(m.step_time_ms, 0.0) << name;
        EXPECT_GT(m.throughput, 0.0) << name;
        EXPECT_EQ(m.policy, name);
    }
}

TEST(Harness, OrderingSanity)
{
    // The endpoints must order: fast-only fastest, slow-only slowest.
    ExperimentConfig cfg = smallConfig();
    Metrics fast = runExperiment(cfg, "fast-only");
    Metrics slow = runExperiment(cfg, "slow-only");
    Metrics sentinel = runExperiment(cfg, "sentinel");
    EXPECT_LT(fast.step_time_ms, slow.step_time_ms);
    EXPECT_LE(fast.step_time_ms, sentinel.step_time_ms * 1.02);
    EXPECT_LT(sentinel.step_time_ms, slow.step_time_ms);
}

TEST(Harness, SentinelMetricsPopulated)
{
    Metrics m = runExperiment(smallConfig(), "sentinel");
    EXPECT_GE(m.mil, 1);
    EXPECT_GT(m.pool_mb, 0.0);
}

TEST(Harness, FastFractionShrinksFastTier)
{
    ExperimentConfig cfg = smallConfig();
    cfg.fast_fraction = 0.2;
    Metrics tight = runExperiment(cfg, "numa");
    cfg.fast_fraction = 0.6;
    Metrics roomy = runExperiment(cfg, "numa");
    EXPECT_LT(roomy.step_time_ms, tight.step_time_ms);
    EXPECT_LT(roomy.bytes_slow_mb, tight.bytes_slow_mb);
}

TEST(Harness, VdnnUnsupportedOnLstm)
{
    ExperimentConfig cfg = smallConfig();
    cfg.model = "lstm";
    cfg.platform = Platform::Gpu;
    cfg.fast_bytes = 64ull << 20;
    Metrics m = runExperiment(cfg, "vdnn");
    EXPECT_FALSE(m.supported);
}

TEST(Harness, GpuFeasibilityDetectsOverflow)
{
    // Tiny device memory: plain "tf" (fast-only, strict) cannot hold
    // the model; Sentinel-GPU still can by swapping.
    ExperimentConfig cfg = smallConfig();
    cfg.platform = Platform::Gpu;
    cfg.fast_bytes = 8ull << 20;
    df::Graph g = models::makeModel(cfg.model, cfg.batch);
    ASSERT_GT(g.peakMemoryBytes(), cfg.fast_bytes);

    Metrics sentinel = runExperiment(cfg, "sentinel");
    EXPECT_TRUE(sentinel.feasible);
}

TEST(Harness, MaxBatchTfMatchesStaticPeak)
{
    // For "tf" the search reduces to the largest batch whose peak fits.
    std::uint64_t mem_bytes = 96ull << 20;
    int b = maxBatchSearch("resnet20", "tf", mem_bytes, 256);
    ASSERT_GT(b, 0);
    EXPECT_LE(models::makeModel("resnet20", b).peakMemoryBytes(),
              mem_bytes);
    EXPECT_GT(models::makeModel("resnet20", b + 1).peakMemoryBytes(),
              mem_bytes);
}

TEST(Harness, MaxBatchGrowsWithDeviceMemory)
{
    int small = maxBatchSearch("resnet20", "tf", 48ull << 20, 256);
    int large = maxBatchSearch("resnet20", "tf", 96ull << 20, 256);
    EXPECT_GT(large, small);
}

TEST(Harness, SentinelMaxBatchBeatsTf)
{
    std::uint64_t mem_bytes = 48ull << 20;
    int tf = maxBatchSearch("resnet20", "tf", mem_bytes, 128);
    int sentinel = maxBatchSearch("resnet20", "sentinel", mem_bytes, 128);
    EXPECT_GT(sentinel, tf);
}

TEST(Harness, UnknownPolicyIsFatal)
{
    EXPECT_THROW(runExperiment(smallConfig(), "tcmalloc"),
                 std::runtime_error);
}

TEST(Harness, RejectsNonPositiveBatchAndSteps)
{
    ExperimentConfig cfg = smallConfig();
    cfg.batch = 0;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
    cfg = smallConfig();
    cfg.steps = 0;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsMalformedModelNameAsConfigError)
{
    // A model name that cannot build (malformed synthetic spec,
    // unknown zoo name) is a rejected *input*, not an infeasible run:
    // the harness converts the factory's failure into ConfigError so
    // the fuzzer can tell it apart from a violated invariant.
    ExperimentConfig cfg = smallConfig();
    for (const char *name :
         { "synthetic:1:bp=nan", "synthetic:1:bp=+0.5", "synthetic:abc",
           "no-such-model" }) {
        cfg.model = name;
        EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError) << name;
    }
}

TEST(Harness, RejectsUnknownPlannerAsConfigError)
{
    ExperimentConfig cfg = smallConfig();
    cfg.planner = "ilp";
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
    // The knob gates Sentinel's co-allocation only, but validation is
    // uniform: a bad value is rejected for every policy.
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsWarmupOutsideSteps)
{
    ExperimentConfig cfg = smallConfig();
    cfg.warmup = cfg.steps;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
    cfg.warmup = -1;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsSubPageFastTier)
{
    ExperimentConfig cfg = smallConfig();
    cfg.fast_bytes = mem::kPageSize - 1;
    for (const auto &name : cpuPolicies())
        EXPECT_THROW(runExperiment(cfg, name), ConfigError) << name;
    // A zero fraction can never yield even one page.
    cfg = smallConfig();
    cfg.fast_fraction = 0.0;
    EXPECT_THROW(runExperiment(cfg, "numa"), ConfigError);
}

TEST(Harness, RejectsReservedPoolConsumingWholeTier)
{
    // One page of fast memory: the pool cap (core::kRsCapFraction of
    // the tier) rounds up to the whole tier, which would leave
    // Sentinel's long-lived plan with nothing.  Other policies accept
    // the same (tiny but valid) tier.
    ExperimentConfig cfg = smallConfig();
    cfg.fast_bytes = mem::kPageSize;
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
    EXPECT_NO_THROW(runExperiment(cfg, "numa"));
}

TEST(Harness, ConfigErrorIsDistinguishableFromRunFailures)
{
    // ConfigError means "the experiment was never meaningful", so it
    // deliberately is not a runtime_error — callers that map
    // runtime_error to an infeasible cell (the oracle, the sweep
    // drivers) must not swallow it.
    ExperimentConfig cfg = smallConfig();
    cfg.batch = -3;
    EXPECT_THROW(runExperiment(cfg, "numa"), std::invalid_argument);
    bool caught_as_runtime = false;
    try {
        runExperiment(cfg, "numa");
    } catch (const std::runtime_error &) {
        caught_as_runtime = true;
    } catch (const std::logic_error &) {
    }
    EXPECT_FALSE(caught_as_runtime);
    // And a well-formed config sails through.
    EXPECT_NO_THROW(runExperiment(smallConfig(), "sentinel"));
}

void
expectIdenticalMetrics(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.feasible, b.feasible);
    // Exact equality, not near: each cell is an independent
    // deterministic simulation, so threading must not change a bit.
    EXPECT_EQ(a.step_time_ms, b.step_time_ms);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.exposed_ms, b.exposed_ms);
    EXPECT_EQ(a.recompute_ms, b.recompute_ms);
    EXPECT_EQ(a.fault_ms, b.fault_ms);
    EXPECT_EQ(a.promoted_mb, b.promoted_mb);
    EXPECT_EQ(a.demoted_mb, b.demoted_mb);
    EXPECT_EQ(a.bytes_fast_mb, b.bytes_fast_mb);
    EXPECT_EQ(a.bytes_slow_mb, b.bytes_slow_mb);
    EXPECT_EQ(a.peak_fast_mb, b.peak_fast_mb);
    EXPECT_EQ(a.mil, b.mil);
    EXPECT_EQ(a.case3_events, b.case3_events);
    EXPECT_EQ(a.trial_steps, b.trial_steps);
    EXPECT_EQ(a.pool_mb, b.pool_mb);
}

TEST(Harness, ParallelSweepMatchesSerialExactly)
{
    std::vector<SweepCell> cells;
    for (const std::string &p : cpuPolicies())
        cells.push_back({ smallConfig(), p });
    auto serial = runSweep(cells, 1);
    auto parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(cpuPolicies()[i]);
        expectIdenticalMetrics(parallel[i], serial[i]);
    }
}

TEST(Harness, SweepIsInputOrderedAndDeterministic)
{
    std::vector<SweepCell> cells;
    for (const char *policy : { "fast-only", "numa", "slow-only" }) {
        ExperimentConfig cfg = smallConfig();
        cells.push_back({ cfg, policy });
    }
    auto serial = runSweep(cells, 1);
    auto parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(serial[i].policy, cells[i].policy);
        expectIdenticalMetrics(parallel[i], serial[i]);
    }
}

TEST(Harness, ParallelMaxBatchMatchesSerial)
{
    std::uint64_t mem_bytes = 96ull << 20;
    EXPECT_EQ(maxBatchSearch("resnet20", "tf", mem_bytes, 256, 4),
              maxBatchSearch("resnet20", "tf", mem_bytes, 256));
}

} // namespace
} // namespace sentinel::harness
