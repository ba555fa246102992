/**
 * @file
 * TimeSeries semantics: ring retention, incremental window
 * aggregates, EWMA value/rate, and the percentile sketch.
 */

#include <gtest/gtest.h>

#include "telemetry/timeseries.hh"

using namespace sentinel;
using namespace sentinel::telemetry;

namespace {

TEST(TimeSeries, EmptySeriesReadsAsZero)
{
    TimeSeries ts;
    EXPECT_EQ(ts.total(), 0u);
    EXPECT_EQ(ts.last(), 0u);
    EXPECT_EQ(ts.retained(), 0u);
    EXPECT_EQ(ts.ewma(), 0.0);
    EXPECT_EQ(ts.ewmaRate(), 0.0);
    WindowStats w = ts.window();
    EXPECT_EQ(w.count, 0u);
    EXPECT_EQ(w.sum, 0u);
    EXPECT_EQ(w.mean, 0.0);
}

TEST(TimeSeries, WindowTracksTheLastWSamples)
{
    TimeSeries ts({ /*capacity=*/8, /*window=*/4 });
    for (std::uint64_t v = 1; v <= 10; ++v)
        ts.push(v * 10);
    // Window covers {70, 80, 90, 100}.
    WindowStats w = ts.window();
    EXPECT_EQ(w.count, 4u);
    EXPECT_EQ(w.sum, 340u);
    EXPECT_EQ(w.min, 70u);
    EXPECT_EQ(w.max, 100u);
    EXPECT_DOUBLE_EQ(w.mean, 85.0);
    EXPECT_EQ(ts.last(), 100u);
    EXPECT_EQ(ts.total(), 10u);
}

TEST(TimeSeries, PartialWindowBeforeWSamples)
{
    TimeSeries ts({ 8, 4 });
    ts.push(6);
    ts.push(2);
    WindowStats w = ts.window();
    EXPECT_EQ(w.count, 2u);
    EXPECT_EQ(w.sum, 8u);
    EXPECT_EQ(w.min, 2u);
    EXPECT_EQ(w.max, 6u);
    EXPECT_DOUBLE_EQ(w.mean, 4.0);
}

TEST(TimeSeries, RingRetainsTheNewestCapacitySamples)
{
    TimeSeries ts({ /*capacity=*/4, /*window=*/4 });
    for (std::uint64_t v = 1; v <= 6; ++v)
        ts.push(v);
    ASSERT_EQ(ts.retained(), 4u);
    // Oldest-first view: 3, 4, 5, 6.
    EXPECT_EQ(ts.sample(0), 3u);
    EXPECT_EQ(ts.sample(3), 6u);
}

TEST(TimeSeries, WindowClampedToCapacity)
{
    // A window wider than the ring silently clamps: the incremental
    // sum can only ever cover retained samples.
    TimeSeries ts({ /*capacity=*/4, /*window=*/16 });
    EXPECT_EQ(ts.options().window, 4u);
    for (std::uint64_t v = 1; v <= 8; ++v)
        ts.push(1);
    EXPECT_EQ(ts.window().sum, 4u);
}

TEST(TimeSeries, EwmaConvergesTowardConstantInput)
{
    TimeSeries ts({ 16, 8 });
    ts.push(100); // first sample initializes the EWMA exactly
    EXPECT_DOUBLE_EQ(ts.ewma(), 100.0);
    ts.push(200);
    EXPECT_DOUBLE_EQ(ts.ewma(), 100.0 + TimeSeries::kEwmaAlpha * 100.0);
    for (int i = 0; i < 100; ++i)
        ts.push(200);
    EXPECT_NEAR(ts.ewma(), 200.0, 1e-6);
}

TEST(TimeSeries, RateEwmaUsesSimulatedTime)
{
    TimeSeries ts({ 16, 8 });
    // First stamped push anchors the clock, no rate yet.
    ts.pushAt(1000, /*now=*/1'000'000);
    EXPECT_EQ(ts.ewmaRate(), 0.0);
    // 1000 units over 1 ms of simulated time = 1e6 units/s; the first
    // measured rate initializes the average exactly.
    ts.pushAt(1000, 2'000'000);
    EXPECT_NEAR(ts.ewmaRate(), 1e6, 1.0);
    // 3000 units over the next 1 ms = 3e6 units/s, folded in at alpha.
    ts.pushAt(3000, 3'000'000);
    EXPECT_NEAR(ts.ewmaRate(), 1e6 + TimeSeries::kEwmaAlpha * 2e6, 1.0);
}

TEST(TimeSeries, SketchTracksAllSamplesNotJustTheRing)
{
    TimeSeries ts({ /*capacity=*/4, 4 });
    for (int i = 0; i < 100; ++i)
        ts.push(100); // bit width 7 -> bucket upper bound 127
    ts.push(1ull << 30);
    EXPECT_EQ(ts.sketch().count(), 101u);
    EXPECT_EQ(ts.sketch().percentile(0.5), 127u);
    EXPECT_GE(ts.sketch().percentile(1.0), 1ull << 30);
}

TEST(TimeSeries, ResetKeepsCapacityDropsData)
{
    TimeSeries ts({ 4, 4 });
    for (std::uint64_t v = 1; v <= 6; ++v)
        ts.pushAt(v, static_cast<Tick>(v) * 1000);
    ts.reset();
    EXPECT_EQ(ts.total(), 0u);
    EXPECT_EQ(ts.retained(), 0u);
    EXPECT_EQ(ts.window().count, 0u);
    EXPECT_EQ(ts.sketch().count(), 0u);
    ts.push(42);
    EXPECT_EQ(ts.last(), 42u);
}

} // namespace
