#include <gtest/gtest.h>

#include "harness/bucketed.hh"
#include "models/lstm.hh"

namespace sentinel::harness {
namespace {

// Dynamic graphs in the paper's sense: the same model at different
// (padded) input sizes.  Sequence length is the bucket key.
df::Graph
lstmAtSeq(int seq)
{
    return models::buildLstm(/*batch=*/8, /*hidden=*/128, seq,
                             /*stacked=*/1);
}

core::RuntimeConfig
smallConfig()
{
    return core::RuntimeConfig::optane(8ull << 20);
}

TEST(BucketedRuntime, ProfilesEachBucketOnce)
{
    BucketedRuntime rt(lstmAtSeq, smallConfig());
    EXPECT_EQ(rt.bucketsProfiled(), 0u);

    rt.step(8);
    EXPECT_EQ(rt.bucketsProfiled(), 1u);
    EXPECT_EQ(rt.profilingSteps(), 1);

    // Same bucket again: no new profiling.
    rt.step(8);
    rt.step(8);
    EXPECT_EQ(rt.profilingSteps(), 1);

    // A new input size (new dataflow shape) triggers re-profiling —
    // the paper's handling of control dependencies.
    rt.step(16);
    EXPECT_EQ(rt.bucketsProfiled(), 2u);
    EXPECT_EQ(rt.profilingSteps(), 2);
}

TEST(BucketedRuntime, BucketsTrainIndependently)
{
    BucketedRuntime rt(lstmAtSeq, smallConfig());
    df::StepStats small = rt.step(4);
    df::StepStats large = rt.step(12);
    // A longer unrolled sequence costs more per step.
    EXPECT_GT(large.step_time, small.step_time);

    // Steady state within each bucket.
    rt.step(4);
    df::StepStats again = rt.step(4);
    df::StepStats once_more = rt.step(4);
    EXPECT_EQ(again.step_time, once_more.step_time);
}

TEST(BucketedRuntime, BucketLimitIsFatal)
{
    BucketedRuntime rt(lstmAtSeq, smallConfig(), /*max_buckets=*/2);
    rt.step(2);
    rt.step(4);
    EXPECT_THROW(rt.step(6), std::runtime_error);
}

TEST(BucketedRuntime, PlansDifferPerBucket)
{
    BucketedRuntime rt(lstmAtSeq, smallConfig());
    rt.step(4);
    rt.step(20);
    // The 20-step unroll has more layers, so its migration plan covers
    // more intervals.
    EXPECT_GT(rt.bucket(20).graph().numLayers(),
              rt.bucket(4).graph().numLayers());
    EXPECT_GE(rt.bucket(20).sentinel()->migrationPlan().num_intervals,
              rt.bucket(4).sentinel()->migrationPlan().num_intervals);
}

} // namespace
} // namespace sentinel::harness
