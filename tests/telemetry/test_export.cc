/**
 * @file
 * JSON string escaping, the OpenMetrics helpers (name sanitizing,
 * label escaping, render/parse round-trip), and the sample-by-sample
 * diff behind `sentinel-cli metrics-diff`.
 *
 * The hostile string here is the golden case: a fuzzer label carrying
 * quotes, commas, newlines, and a control byte must come out of
 * jsonEscape as one well-formed JSON string body.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "telemetry/chrome_trace.hh"
#include "telemetry/openmetrics.hh"

using namespace sentinel::telemetry;

namespace {

// Quotes, comma, backslash, newline, tab, and a control byte: every
// class of character that can break JSON framing.
const char *kHostile = "evil\"name,with\\stuff\nand\tmore\x01" "end";

TEST(Export, JsonEscapesHostileNames)
{
    const std::string json = jsonEscape(kHostile);

    // The raw quote/newline must not appear inside the string literal.
    EXPECT_EQ(json.find("evil\"name"), std::string::npos);
    EXPECT_NE(json.find("evil\\\"name"), std::string::npos);
    EXPECT_NE(json.find("with\\\\stuff"), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(OpenMetrics, SanitizeName)
{
    EXPECT_EQ(omSanitizeName("mem.promoted_bytes"),
              "mem_promoted_bytes");
    EXPECT_EQ(omSanitizeName("9lives"), "_9lives");
    EXPECT_EQ(omSanitizeName(""), "_");
    EXPECT_EQ(omSanitizeName("ok:name_1"), "ok:name_1");
    EXPECT_EQ(omSanitizeName("spaces and-dashes"),
              "spaces_and_dashes");
}

TEST(OpenMetrics, LabelEscaping)
{
    EXPECT_EQ(omEscapeLabel("plain"), "plain");
    EXPECT_EQ(omEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(OpenMetrics, RenderParsesBackExactly)
{
    MetricRegistry reg;
    reg.counter("mem.promoted_bytes").add(4096);
    reg.gauge("mem.fast_peak").noteMax(1 << 20);
    reg.histogram("exec.stall_ns").record(100);

    std::ostringstream os;
    writeOpenMetrics(reg, os, { { "job", "evil\"job\nname" } });
    omWriteEof(os);
    std::string text = os.str();
    EXPECT_NE(text.find("# TYPE mem_promoted_bytes_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# EOF\n"), std::string::npos);

    std::vector<OmSample> samples;
    std::string err;
    ASSERT_TRUE(parseOpenMetrics(text, samples, &err)) << err;
    ASSERT_GE(samples.size(), 4u);
    bool found_counter = false;
    for (const OmSample &s : samples) {
        EXPECT_EQ(s.label("job"), "evil\"job\nname") << s.name;
        if (s.name == "mem_promoted_bytes_total") {
            found_counter = true;
            EXPECT_EQ(s.value, 4096.0);
        }
    }
    EXPECT_TRUE(found_counter);
}

TEST(OpenMetrics, ParseRejectsMalformedLines)
{
    std::vector<OmSample> samples;
    std::string err;
    EXPECT_FALSE(parseOpenMetrics("{bad} 1\n", samples, &err));
    EXPECT_FALSE(parseOpenMetrics("name{key=1} 2\n", samples, &err));
    EXPECT_FALSE(parseOpenMetrics("name{k=\"v} 2\n", samples, &err));
    EXPECT_FALSE(parseOpenMetrics("name\n", samples, &err));
    EXPECT_FALSE(parseOpenMetrics("name notanumber\n", samples, &err));
    EXPECT_FALSE(err.empty());
}

TEST(OpenMetrics, SplitScrapeFrames)
{
    std::string two = "# scrape k=1 tick=5\na 1\n# EOF\n"
                      "# scrape k=2 tick=9\na 2\n# EOF\n";
    std::vector<std::string> frames = splitScrapeFrames(two);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_NE(frames[0].find("a 1"), std::string::npos);
    EXPECT_NE(frames[1].find("a 2"), std::string::npos);
    // A trailing partial frame (no terminator) is dropped, not
    // half-parsed.
    EXPECT_EQ(splitScrapeFrames("a 1\n").size(), 0u);
}

TEST(OpenMetrics, ValueFormattingIsGrepFriendly)
{
    EXPECT_EQ(omFormatValue(0.0), "0");
    EXPECT_EQ(omFormatValue(4096.0), "4096");
    EXPECT_EQ(omFormatValue(-3.0), "-3");
    EXPECT_EQ(omFormatValue(0.5), "0.5");
}

/** A registry with one counter "c", one gauge "g" and a histogram "h"
 *  of @p hist, rendered as a `run --metrics-out` file and parsed. */
std::vector<OmSample>
exposition(std::uint64_t counter, std::uint64_t gauge,
           std::initializer_list<std::uint64_t> hist)
{
    MetricRegistry reg;
    reg.counter("c").add(counter);
    reg.gauge("g").noteMax(gauge);
    for (std::uint64_t v : hist)
        reg.histogram("h").record(v);
    std::ostringstream os;
    writeOpenMetrics(reg, os);
    omWriteEof(os);
    std::vector<OmSample> samples;
    std::string err;
    EXPECT_TRUE(parseOpenMetrics(os.str(), samples, &err)) << err;
    return samples;
}

TEST(OpenMetricsDiff, FlagsEachDiffedValueAlone)
{
    // h = {10, 20, 40, 100}: count 4, sum 170, p50 31 (the bucket of
    // 20), p99 63 (the bucket of 40), max 100.  Each case moves exactly
    // one of the values a metrics diff compares and keeps the rest.
    const std::vector<OmSample> base =
        exposition(100, 100, { 10, 20, 40, 100 });
    const struct {
        const char *key;
        std::vector<OmSample> b;
    } cases[] = {
        { "c_total", exposition(200, 100, { 10, 20, 40, 100 }) },
        { "g", exposition(100, 200, { 10, 20, 40, 100 }) },
        { "h_count", exposition(100, 100, { 0, 16, 16, 38, 100 }) },
        { "h_sum", exposition(100, 100, { 11, 20, 40, 100 }) },
        { "h{quantile=\"0.5\"}",
          exposition(100, 100, { 15, 15, 40, 100 }) },
        { "h{quantile=\"0.99\"}",
          exposition(100, 100, { 8, 31, 31, 100 }) },
        { "h{quantile=\"1\"}", exposition(100, 100, { 10, 20, 41, 99 }) },
    };
    EXPECT_TRUE(diffSamples(base, base, 0.0).empty());
    for (const auto &c : cases) {
        SCOPED_TRACE(c.key);
        std::vector<OmDiffRow> rows = diffSamples(base, c.b, 0.5);
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].key, c.key);
        EXPECT_TRUE(rows[0].a && rows[0].b);
        EXPECT_TRUE(rows[0].flagged);
    }
}

TEST(OpenMetricsDiff, QuantileOneIsTheExactMax)
{
    int seen = 0;
    for (const OmSample &s : exposition(1, 1, { 3, 1000, 70000 })) {
        if (s.name == "h" && s.label("quantile") == "1") {
            ++seen;
            EXPECT_EQ(s.value, 70000.0); // p99 is the bucket bound 131071
        }
    }
    EXPECT_EQ(seen, 1);
}

TEST(OpenMetricsDiff, ThresholdAddedAndRemoved)
{
    std::vector<OmSample> a = { { "x", {}, 100.0 }, { "gone", {}, 1.0 } };
    std::vector<OmSample> b = { { "x", {}, 105.0 },
                                { "new", { { "job", "j\"1" } }, 2.0 } };
    std::vector<OmDiffRow> rows = diffSamples(a, b, 10.0);
    ASSERT_EQ(rows.size(), 3u); // key order: gone, new{...}, x
    EXPECT_EQ(rows[0].key, "gone");
    EXPECT_TRUE(rows[0].a && !rows[0].b && rows[0].flagged);
    EXPECT_EQ(rows[1].key, "new{job=\"j\\\"1\"}");
    EXPECT_TRUE(!rows[1].a && rows[1].b && rows[1].flagged);
    // A 5% move is listed but stays under a 10% threshold.
    EXPECT_EQ(rows[2].key, "x");
    EXPECT_DOUBLE_EQ(rows[2].change_pct, 5.0);
    EXPECT_FALSE(rows[2].flagged);
    EXPECT_TRUE(diffSamples(a, b, 4.0)[2].flagged);
}

TEST(OpenMetricsDiff, RepeatedSampleIsRejected)
{
    std::vector<OmSample> twice = { { "x", {}, 1.0 }, { "x", {}, 2.0 } };
    EXPECT_THROW(diffSamples(twice, {}, 10.0), std::invalid_argument);
    EXPECT_THROW(diffSamples({}, twice, 10.0), std::invalid_argument);
    // The same name under other labels is another sample.
    std::vector<OmSample> labelled = { { "x", { { "k", "1" } }, 1.0 },
                                       { "x", { { "k", "2" } }, 1.0 } };
    EXPECT_TRUE(diffSamples(labelled, labelled, 0.0).empty());
}

} // namespace
