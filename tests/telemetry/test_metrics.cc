/**
 * @file
 * Counter/Gauge/Histogram semantics and registry snapshot ordering.
 */

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"

using namespace sentinel::telemetry;

namespace {

TEST(Counter, Accumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksHighWaterMark)
{
    Gauge g;
    g.noteMax(10);
    g.noteMax(3); // lower sample must not pull the mark down
    EXPECT_EQ(g.max(), 10u);
    g.noteMax(99);
    EXPECT_EQ(g.max(), 99u);
}

TEST(Histogram, CountSumMinMax)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u); // empty histogram reports 0, not ~0
    for (std::uint64_t v : { 3ull, 17ull, 1000ull, 0ull })
        h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1020u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
}

TEST(Histogram, PercentileIsBucketUpperBound)
{
    Histogram h;
    // 99 samples in the [64,128) bucket, one huge outlier.
    for (int i = 0; i < 99; ++i)
        h.record(100);
    h.record(1ull << 40);
    // p50 lands in the 100s bucket: upper bound 2^7 - 1 = 127.
    EXPECT_EQ(h.percentile(0.5), 127u);
    // p100 lands in the outlier's bucket.
    EXPECT_GE(h.percentile(1.0), 1ull << 40);
    // Monotonic in p.
    EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
}

TEST(Histogram, EmptyPercentileIsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Histogram, BucketBoundaries)
{
    // Bucket i holds values of bit width i: zeros land in bucket 0
    // (reported as 0), a value of 2^(i-1) and one of 2^i - 1 share
    // bucket i and both report its upper bound 2^i - 1 (capped at the
    // largest value recorded).
    Histogram zeros;
    zeros.record(0);
    EXPECT_EQ(zeros.percentile(0.5), 0u);
    EXPECT_EQ(zeros.percentile(1.0), 0u);

    Histogram one;
    one.record(1); // bit width 1 -> bucket 1 -> upper bound 1
    EXPECT_EQ(one.percentile(0.5), 1u);

    Histogram shared;
    shared.record(64);  // 2^6: width 7
    shared.record(127); // 2^7 - 1: width 7
    EXPECT_EQ(shared.percentile(0.5), 127u);
    EXPECT_EQ(shared.percentile(1.0), 127u);

    Histogram next;
    next.record(128); // 2^7: first value of the NEXT bucket
    next.record(1000);
    EXPECT_EQ(next.percentile(0.5), 255u);
}

TEST(Histogram, SingleSampleEveryQuantile)
{
    Histogram h;
    h.record(100); // width 7 -> upper bound 127, capped at the max
    EXPECT_EQ(h.percentile(0.0), 100u);
    EXPECT_EQ(h.percentile(0.5), 100u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, QuantilesNeverExceedTheMax)
{
    // The top sample's bucket bound (2^20 - 1) lies above the max, so
    // p99 used to read 1048575 above q = 1's 751474.
    Histogram h;
    for (int i = 0; i < 98; ++i)
        h.record(1000);
    h.record(600000);
    h.record(751474);
    EXPECT_EQ(h.percentile(0.5), 1023u);
    EXPECT_EQ(h.percentile(0.99), 751474u);
    EXPECT_EQ(h.percentile(1.0), 751474u);
    std::uint64_t prev = 0;
    for (int q = 0; q <= 100; ++q) {
        const std::uint64_t v = h.percentile(q / 100.0);
        EXPECT_LE(prev, v) << q;
        EXPECT_LE(v, h.max()) << q;
        prev = v;
    }
}

TEST(Histogram, AllDuplicatesAndTopBucketClamp)
{
    Histogram dup;
    for (int i = 0; i < 32; ++i)
        dup.record(1000); // width 10 -> upper bound 1023, capped
    EXPECT_EQ(dup.percentile(0.01), 1000u);
    EXPECT_EQ(dup.percentile(0.99), 1000u);

    // Values of width >= 64 have no representable 2^i - 1 upper
    // bound; the histogram reports the observed max instead.
    Histogram top;
    top.record(~0ull);
    EXPECT_EQ(top.percentile(1.0), ~0ull);
}

TEST(MetricRegistry, FindOrCreateReturnsStableInstrument)
{
    MetricRegistry reg;
    EXPECT_TRUE(reg.empty());
    Counter &a = reg.counter("x");
    a.add(5);
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 5u);
    EXPECT_FALSE(reg.empty());
}

TEST(MetricRegistry, SnapshotSortedAndTyped)
{
    MetricRegistry reg;
    reg.counter("z.count").add(7);
    reg.gauge("a.peak").noteMax(123);
    reg.histogram("m.lat").record(64);
    reg.histogram("m.lat").record(64);

    auto rows = reg.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "a.peak");
    EXPECT_EQ(rows[0].kind, "gauge");
    EXPECT_EQ(rows[0].max, 123u);
    EXPECT_EQ(rows[1].name, "m.lat");
    EXPECT_EQ(rows[1].kind, "histogram");
    EXPECT_EQ(rows[1].count, 2u);
    EXPECT_EQ(rows[1].sum, 128u);
    EXPECT_EQ(rows[2].name, "z.count");
    EXPECT_EQ(rows[2].kind, "counter");
    EXPECT_EQ(rows[2].sum, 7u);
}

} // namespace
