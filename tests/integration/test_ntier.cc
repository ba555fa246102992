/**
 * @file
 * N-tier hierarchy property suite (`ctest -L ntier`).
 *
 *  - the full CPU policy matrix holds every oracle invariant on
 *    three-tier chains, over all eight committed fuzz seeds and an
 *    LLM-scale transformer;
 *  - staged prefetches (the two-leg NVMe->DRAM->HBM path) appear in
 *    the decision audit log on three tiers and never on two;
 *  - a zero-capacity middle tier degrades to exact two-tier placement;
 *  - a single-tier chain runs every policy with zero migration;
 *  - a middle tier smaller than one page is a rejected configuration;
 *  - chaos capacity shrink aimed at the middle tier (`tier=1`)
 *    perturbs the run without breaking any policy.
 */


#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/oracle.hh"
#include "mem/hm.hh"
#include "models/synthetic.hh"
#include "telemetry/audit.hh"

namespace sentinel::harness {
namespace {

ExperimentConfig
threeTierConfig(const std::string &model, int batch)
{
    ExperimentConfig cfg;
    cfg.model = model;
    cfg.batch = batch;
    cfg.steps = 6;
    cfg.warmup = 3;
    cfg.fast_fraction = 0.2;
    cfg.tiers = 3;
    return cfg;
}

// --- S1: oracle matrix over three-tier chains --------------------------

class ThreeTierOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ThreeTierOracle, FullPolicyMatrixHoldsEveryInvariant)
{
    ExperimentConfig cfg = threeTierConfig(
        "synthetic:" + std::to_string(GetParam()), 4);
    OracleOptions opts;
    opts.jobs = 2;
    opts.run_gpu = false;
    opts.check_determinism = false;
    OracleReport rep = runOracle(cfg, opts);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(
    CommittedSeeds, ThreeTierOracle,
    ::testing::ValuesIn(std::begin(models::kCommittedFuzzSeeds),
                        std::end(models::kCommittedFuzzSeeds)),
    [](const ::testing::TestParamInfo<std::uint64_t> &info) {
        return "seed_" + std::to_string(info.param);
    });

TEST(ThreeTierLlm, FullPolicyMatrixHoldsEveryInvariant)
{
    // The acceptance workload: an LLM-scale transformer on a
    // three-tier chain through the whole policy matrix.
    ExperimentConfig cfg = threeTierConfig("llm:tiny:l=2,seq=64", 2);
    OracleOptions opts;
    opts.jobs = 2;
    opts.run_gpu = false;
    opts.check_determinism = false;
    OracleReport rep = runOracle(cfg, opts);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

// --- Staged prefetch visibility ----------------------------------------

std::size_t
countStageRecords(const telemetry::AuditLog &audit)
{
    std::size_t n = 0;
    for (const telemetry::AuditRecord &r : audit.records())
        if (r.reason == telemetry::AuditReason::kPrefetchStage)
            ++n;
    return n;
}

TEST(StagedPrefetch, AuditedOnThreeTiersOnly)
{
    ExperimentConfig cfg = threeTierConfig("llm:tiny:l=2,seq=64", 2);
    cfg.steps = 9;
    cfg.warmup = 6;

    telemetry::AuditLog three_audit;
    cfg.audit = &three_audit;
    Metrics three = runExperiment(cfg, "sentinel");
    ASSERT_TRUE(three.supported);
    EXPECT_GT(countStageRecords(three_audit), 0u)
        << "no staged (two-leg) prefetches were audited on a "
           "three-tier chain";

    // The identical two-tier run must not stage anything: there is no
    // middle tier to stage through, and the legacy configuration is
    // bit-identical to pre-N-tier behaviour.
    telemetry::AuditLog two_audit;
    cfg.tiers = 2;
    cfg.audit = &two_audit;
    Metrics two = runExperiment(cfg, "sentinel");
    ASSERT_TRUE(two.supported);
    EXPECT_EQ(countStageRecords(two_audit), 0u);
}

// --- S2: degradation properties ----------------------------------------

TEST(NtierDegradation, ZeroCapacityMidTierPlacesLikeTwoTier)
{
    // Constructed directly through the chain constructor: the harness
    // (rightly) rejects a sub-page middle tier, but the memory system
    // itself must degrade gracefully when one tier cannot hold a page.
    mem::TierParams fast{ "dram", 4 * mem::kPageSize, 10e9, 10e9, 100,
                          100 };
    mem::TierParams mid{ "mid", 0, 5e9, 5e9, 200, 200 };
    mem::TierParams slow{ "pmm", 64 * mem::kPageSize, 2e9, 1e9, 300,
                          300 };
    mem::MigrationParams link{ 1e9, 1e9, 0 };

    mem::HeterogeneousMemory three({ fast, mid, slow }, { link, link });
    mem::HeterogeneousMemory two(fast, slow, link);

    // Same placement request on both: prefer fast, spill when full.
    three.mapRange(0, 8, mem::Tier::Fast);
    two.mapRange(0, 8, mem::Tier::Fast);
    for (mem::PageId p = 0; p < 8; ++p) {
        const mem::Tier at3 = three.residentRange(p, 1, 0).tier;
        const mem::Tier at2 = two.residentRange(p, 1, 0).tier;
        EXPECT_EQ(at3 == mem::Tier::Fast, at2 == mem::Tier::Fast)
            << "page " << p;
        if (at3 != mem::Tier::Fast) {
            EXPECT_EQ(at3, three.slowestTier());
        }
    }
    EXPECT_EQ(three.tier(mem::makeTier(1)).used(), 0u);

    // Migration into the empty middle tier schedules nothing...
    const mem::PageRun pages[] = { { 6, 2 } };
    EXPECT_EQ(three.migratePages(pages, mem::makeTier(1), 0), 0u);
    // ...while promotion straight to fast still works on both systems.
    three.unmapRange(0, 1, 0);
    two.unmapRange(0, 1, 0);
    const mem::PageRun six[] = { { 6, 1 } };
    EXPECT_EQ(three.migratePages(six, mem::Tier::Fast, 0), 1u);
    EXPECT_EQ(two.migratePages(six, mem::Tier::Fast, 0), 1u);
    EXPECT_GT(three.flightInfo(6).arrival, 0);
    EXPECT_GT(two.flightInfo(6).arrival, 0);
}

TEST(NtierDegradation, SingleTierChainRunsEveryPolicyWithoutMigration)
{
    ExperimentConfig cfg;
    cfg.model = "synthetic:11";
    cfg.batch = 4;
    cfg.steps = 5;
    cfg.warmup = 2;
    cfg.tiers = 1;
    cfg.fast_fraction = 1.25; // the only tier must hold everything
    for (const std::string &policy : cpuPolicies()) {
        Metrics m = runExperiment(cfg, policy);
        if (!m.supported)
            continue;
        EXPECT_TRUE(m.feasible) << policy;
        EXPECT_EQ(m.migrated_mb(), 0.0) << policy;
        EXPECT_EQ(m.bytes_slow_mb, 0.0) << policy;
        EXPECT_GT(m.step_time_ms, 0.0) << policy;
    }
}

TEST(NtierDegradation, SubPageMidTierIsRejected)
{
    ExperimentConfig cfg = threeTierConfig("synthetic:11", 4);
    cfg.mid_bytes = 100; // < one page, explicit
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);

    cfg.mid_bytes = 0;
    cfg.mid_fraction = 1e-12; // < one page, derived
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
}

TEST(NtierDegradation, ChainLengthOutOfRangeIsRejected)
{
    ExperimentConfig cfg = threeTierConfig("synthetic:11", 4);
    cfg.tiers = 0;
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
    cfg.tiers = static_cast<int>(mem::kMaxTiers) + 1;
    EXPECT_THROW(runExperiment(cfg, "sentinel"), ConfigError);
}

// --- S4: chaos shrink against the middle tier --------------------------

TEST(NtierChaos, MidTierShrinkRunsEveryPolicy)
{
    ExperimentConfig cfg = threeTierConfig("synthetic:11", 4);
    cfg.steps = 8;
    cfg.warmup = 6;
    cfg.chaos = "shrink:step=2,factor=0.25,tier=1";
    for (const std::string &policy : cpuPolicies()) {
        Metrics m = runExperiment(cfg, policy);
        EXPECT_TRUE(m.supported) << policy;
        if (m.feasible) {
            EXPECT_GT(m.step_time_ms, 0.0) << policy;
        }
    }
}

TEST(NtierChaos, MidTierCapacityScaleCapsFutureArrivals)
{
    // The mechanism the shrink fault drives: a scaled-down middle tier
    // caps new arrivals at the shrunken capacity (the guard blocks
    // reservations; it never evicts residents).
    mem::TierParams fast{ "hbm", 2 * mem::kPageSize, 10e9, 10e9, 100,
                          100 };
    mem::TierParams mid{ "dram", 8 * mem::kPageSize, 5e9, 5e9, 200,
                         200 };
    mem::TierParams slow{ "nvme", 64 * mem::kPageSize, 2e9, 1e9, 300,
                          300 };
    mem::MigrationParams link{ 1e9, 1e9, 0 };
    mem::HeterogeneousMemory hm({ fast, mid, slow }, { link, link });
    hm.mapRange(0, 32, hm.slowestTier());

    hm.setTierCapacityScale(1, 0.5); // mid: 8 pages -> 4 pages
    const mem::PageRun first[] = { { 0, 8 } };
    std::size_t moved = hm.migratePages(first, mem::makeTier(1), 0);
    EXPECT_GT(moved, 0u);
    EXPECT_LE(moved, 4u);
    EXPECT_LE(hm.tier(mem::makeTier(1)).used(), 4 * mem::kPageSize);

    // Lifting the fault restores headroom for new arrivals.
    hm.setTierCapacityScale(1, 1.0);
    const mem::PageRun second[] = { { 8, 4 } };
    std::size_t more =
        hm.migratePages(second, mem::makeTier(1), 10 * kMsec);
    EXPECT_GT(more, 0u);
}

} // namespace
} // namespace sentinel::harness
