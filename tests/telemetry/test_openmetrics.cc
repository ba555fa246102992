#include <cstddef>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "telemetry/metrics.hh"
#include "telemetry/openmetrics.hh"

namespace sentinel::telemetry {
namespace {

/** One scrape frame as a --scrape-out snapshot holds it. */
std::string
renderFrame()
{
    MetricRegistry reg;
    reg.counter("mem.promoted_bytes").add(4096);
    reg.gauge("mem.fast_peak").noteMax(1 << 20);
    reg.histogram("exec.stall_ns").record(100);
    reg.histogram("exec.stall_ns").record(2500);
    std::ostringstream os;
    os << "# scrape k=3 tick=123456\n";
    writeOpenMetrics(reg, os, { { "job", "resnet32#0 \"q\"\\n" } });
    omWriteEof(os);
    return os.str();
}

bool
isSeparator(char c)
{
    return c == '{' || c == '}' || c == '"' || c == '=' || c == ',' ||
           c == ' ' || c == '\n' || c == '\\' || c == '#';
}

/** The frame as tokens: runs of ordinary bytes, and each separator
 *  byte on its own, so joining the tokens gives the frame back. */
std::vector<std::string>
tokenize(const std::string &text)
{
    std::vector<std::string> toks;
    for (char c : text) {
        if (isSeparator(c) || toks.empty() || isSeparator(toks.back()[0]))
            toks.emplace_back(1, c);
        else
            toks.back() += c;
    }
    return toks;
}

std::string
join(const std::vector<std::string> &toks)
{
    std::string out;
    for (const std::string &t : toks)
        out += t;
    return out;
}

std::size_t
countLines(const std::string &text)
{
    std::size_t n = 0;
    for (std::size_t pos = 0; pos < text.size(); ++n) {
        std::size_t eol = text.find('\n', pos);
        pos = eol == std::string::npos ? text.size() : eol + 1;
    }
    return n;
}

/** The first @p lines lines of @p text. */
std::string
firstLines(const std::string &text, std::size_t lines)
{
    std::size_t pos = 0;
    for (std::size_t i = 0; i < lines && pos < text.size(); ++i) {
        std::size_t eol = text.find('\n', pos);
        pos = eol == std::string::npos ? text.size() : eol + 1;
    }
    return text.substr(0, pos);
}

TEST(OpenMetricsParse, SeededTokenMutationsParseOrNameTheirLine)
{
    // Each trial applies one to three seeded edits to a rendered frame:
    // a token replaced by a hostile one, a token dropped or doubled, or
    // two tokens swapped.  The parse must either succeed or fail with
    // "line N: ..." naming the first bad line: the lines before it
    // parse on their own.
    const std::string frame = renderFrame();
    const std::vector<std::string> base = tokenize(frame);
    ASSERT_EQ(join(base), frame);
    const char *const kTokens[] = { "",    "{",     "}",   "\"",
                                    "=",   ",",     "\\",  "\n",
                                    "#",   " ",     "nan", "-inf",
                                    "1e999", "0x1p4", "9lives", "a b" };
    const std::int64_t kNumTokens =
        static_cast<std::int64_t>(sizeof(kTokens) / sizeof(kTokens[0]));
    Rng rng(0x0e7a1105ull);
    int parsed = 0;
    int rejected = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<std::string> toks = base;
        const int edits = static_cast<int>(rng.uniformInt(1, 3));
        for (int e = 0; e < edits; ++e) {
            const auto last = static_cast<std::int64_t>(toks.size()) - 1;
            const auto t = static_cast<std::size_t>(rng.uniformInt(0, last));
            switch (rng.uniformInt(0, 3)) {
              case 0:
                toks[t] = kTokens[rng.uniformInt(0, kNumTokens - 1)];
                break;
              case 1:
                toks.erase(toks.begin() + static_cast<long>(t));
                break;
              case 2: {
                const std::string dup = toks[t];
                toks.insert(toks.begin() + static_cast<long>(t), dup);
                break;
              }
              default:
                std::swap(toks[t], toks[static_cast<std::size_t>(
                                       rng.uniformInt(0, last))]);
                break;
            }
        }
        const std::string text = join(toks);
        SCOPED_TRACE(::testing::Message() << "trial " << trial << "\n"
                                          << text);
        std::vector<OmSample> samples;
        std::string err;
        if (parseOpenMetrics(text, samples, &err)) {
            ++parsed;
            for (const OmSample &s : samples)
                EXPECT_FALSE(s.name.empty());
            continue;
        }
        ++rejected;
        ASSERT_EQ(err.rfind("line ", 0), 0u) << err;
        char *end = nullptr;
        const unsigned long n = std::strtoul(err.c_str() + 5, &end, 10);
        ASSERT_EQ(*end, ':') << err;
        ASSERT_GE(n, 1u) << err;
        ASSERT_LE(n, countLines(text)) << err;
        std::vector<OmSample> before;
        std::string before_err;
        EXPECT_TRUE(parseOpenMetrics(firstLines(text, n - 1), before,
                                     &before_err))
            << "line " << n << " is not the first bad line: "
            << before_err;
    }
    // Both outcomes must be exercised for the trial mix to mean much.
    EXPECT_GT(parsed, 40);
    EXPECT_GT(rejected, 40);
}

// Regressions the mutation run above found: each was accepted before.

TEST(OpenMetricsParse, LostNewlineDoesNotFoldTwoSamples)
{
    std::vector<OmSample> samples;
    std::string err;
    EXPECT_FALSE(parseOpenMetrics("a 1\nb{k=\"v\"} 127#c 2\n", samples,
                                  &err));
    EXPECT_EQ(err, "line 2: trailing characters after the value");
    EXPECT_FALSE(parseOpenMetrics("b 2 c 3\n", samples, &err));
    EXPECT_EQ(err, "line 1: trailing characters after the value");
    EXPECT_FALSE(parseOpenMetrics("b -inf1048576\n", samples, &err));
    EXPECT_EQ(err, "line 1: trailing characters after the value");
    // A timestamp after the value is still fine.
    samples.clear();
    ASSERT_TRUE(parseOpenMetrics("b 2 1700000000\n", samples, &err)) << err;
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].value, 2.0);
}

TEST(OpenMetricsParse, ValueMustBeSpaceSeparated)
{
    std::vector<OmSample> samples;
    std::string err;
    EXPECT_FALSE(parseOpenMetrics("b{k=\"v\"}4096\n", samples, &err));
    EXPECT_EQ(err, "line 1: no space before the value");
}

} // namespace
} // namespace sentinel::telemetry
