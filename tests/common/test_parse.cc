#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "harness/oracle.hh"
#include "server/job.hh"
#include "server/oracle.hh"

namespace sentinel {
namespace {

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kMax = std::numeric_limits<double>::max();

TEST(Parse, RejectsMalformedReals)
{
    // The spellings the synthetic-name reader has always rejected, read
    // with the widest range: no special, sign, space, hex or suffix.
    const char *const bad[] = {
        "nan", "NAN", "-nan", "inf", "-inf", "infinity", "+0.5", " 0.5",
        "0.5 ", "0x1p-4", "0x5", "0.5f", ".", "-", "-.", "1e", "1e+",
        "e5", "1e400", "-1e400", "0,5", "1.2.3", "--1", "", "1_000",
    };
    for (const char *t : bad)
        EXPECT_FALSE(parseReal(t, -kMax, kMax).has_value()) << t;
    // A '-' is part of the grammar only when the range admits it.
    EXPECT_FALSE(parseReal("-0.0", 0.0, 1.0).has_value());
    EXPECT_FALSE(parseReal("-0.5", 0.0, kMax).has_value());
}

TEST(Parse, RejectsMalformedIntegers)
{
    const char *const bad[] = {
        "+4", " 4", "4 ", "0x4", "4.0", "4.", "1e3", "", "-", "--4",
        "abc", "4x", "2147483648", "-2147483649", "99999999999999999999",
    };
    for (const char *t : bad)
        EXPECT_FALSE(parseInt(t, kIntMin, kIntMax).has_value()) << t;
    EXPECT_FALSE(parseInt("-1", 0, kIntMax).has_value());
    EXPECT_FALSE(parseInt("-0", 0, kIntMax).has_value());
    EXPECT_FALSE(parseInt("9223372036854775808",
                          std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max())
                     .has_value());
    // 2^64, and a sign an unsigned type never takes.
    EXPECT_FALSE(parseInt("18446744073709551616", std::uint64_t{ 0 }, kU64Max)
                     .has_value());
    EXPECT_FALSE(parseInt("-1", std::uint64_t{ 0 }, kU64Max).has_value());
}

TEST(Parse, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseInt("007", 0, 10), 7);
    EXPECT_EQ(parseInt("-7", -10, 10), -7);
    EXPECT_EQ(parseInt("-0", -1, 1), 0);
    EXPECT_EQ(parseInt("-2147483648", kIntMin, kIntMax), kIntMin);
    EXPECT_EQ(parseInt("2147483647", kIntMin, kIntMax), kIntMax);
    EXPECT_EQ(parseInt("18446744073709551615", std::uint64_t{ 0 }, kU64Max),
              kU64Max);
    EXPECT_EQ(parseReal(".5", 0.0, 1.0), 0.5);
    EXPECT_EQ(parseReal("5.", 0.0, 10.0), 5.0);
    EXPECT_EQ(parseReal("1E+3", 0.0, kMax), 1000.0);
    EXPECT_EQ(parseReal("2.5e-1", 0.0, 1.0), 0.25);
    EXPECT_EQ(parseReal("-0.9", -1.0, 1.0), -0.9);
    EXPECT_EQ(parseReal("0", 0.0, 1.0), 0.0);
}

TEST(Parse, RangesAreInclusive)
{
    EXPECT_EQ(parseInt("1", 1, 64), 1);
    EXPECT_EQ(parseInt("64", 1, 64), 64);
    EXPECT_FALSE(parseInt("0", 1, 64).has_value());
    EXPECT_FALSE(parseInt("65", 1, 64).has_value());
    EXPECT_EQ(parseReal("1", 0.0, 1.0), 1.0);
    EXPECT_FALSE(parseReal("1.0000001", 0.0, 1.0).has_value());
    EXPECT_FALSE(parseReal("0.5", 0.75, 1.0).has_value());
}

TEST(Parse, SeedsReadAsStrtoullBaseZero)
{
    EXPECT_EQ(parseSeed("0x5e97195e"), 0x5e97195eull);
    EXPECT_EQ(parseSeed("0X1F"), 31u);
    EXPECT_EQ(parseSeed("017"), 15u);
    EXPECT_EQ(parseSeed("0"), 0u);
    EXPECT_EQ(parseSeed("42"), 42u);
    EXPECT_EQ(parseSeed("18446744073709551615"), kU64Max);
    const char *const bad[] = {
        "", "abc", "-1", "+1", " 1", "1 ", "0x", "08", "0xg", "1.0",
        "18446744073709551616", "0x10000000000000000",
    };
    for (const char *t : bad)
        EXPECT_FALSE(parseSeed(t).has_value()) << t;
}

TEST(Parse, ReadErrorTellsRangeFromGarbage)
{
    EXPECT_EQ(readError("-5", 0, 10), "must lie in [0, 10] (got -5)");
    EXPECT_EQ(readError("11", 0, 10), "must lie in [0, 10] (got 11)");
    EXPECT_EQ(readError("2147483648", 0, 10),
              "must lie in [0, 10] (got 2147483648)");
    EXPECT_EQ(readError("abc", 0, 10), "expects a number, got 'abc'");
    EXPECT_EQ(readError("18446744073709551616", 0, 10),
              "expects a number, got '18446744073709551616'");
    EXPECT_EQ(readError("1.5", 0.0, 1.0), "must lie in [0, 1] (got 1.5)");
    EXPECT_EQ(readError("nan", 0.0, 1.0), "expects a number, got 'nan'");
}

TEST(Parse, SplitKeepsEmptyFields)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(split("cu=1,,mu=2,", ","), (V{ "cu=1", "", "mu=2", "" }));
    EXPECT_EQ(split("bw:step=6", ";"), V{ "bw:step=6" });
    EXPECT_EQ(split("", ","), V{ "" });
    EXPECT_EQ(split("a \tb", " \t"), (V{ "a", "", "b" }));
}

/** The value of `key=` in @p text, where entries are separated by
 *  @p sep. */
std::string
valueOf(const std::string &text, const std::string &key, char sep)
{
    std::istringstream in(text);
    std::string entry;
    while (std::getline(in, entry, sep))
        if (entry.rfind(key + "=", 0) == 0)
            return entry.substr(key.size() + 1);
    return "";
}

TEST(Parse, RoundTripsWhatTheWritersWrite)
{
    // FuzzCase::serialize and JobSpec::toSpecString write their reals
    // with %.17g; each must read back as the same double.
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        harness::FuzzCase c = harness::FuzzCase::random(seed);
        c.inject_capacity = 0.6;
        c.inject_traffic = -0.5;
        const std::string text = c.serialize();
        EXPECT_EQ(parseReal(valueOf(text, "fraction", '\n'), -kMax, kMax),
                  c.fast_fraction);
        EXPECT_EQ(parseReal(valueOf(text, "inject_capacity", '\n'), -kMax,
                            kMax),
                  c.inject_capacity);
        EXPECT_EQ(parseReal(valueOf(text, "inject_traffic", '\n'), -kMax,
                            kMax),
                  c.inject_traffic);
        for (server::JobSpec s : server::randomColocation(seed, 3)) {
            s.arrival = s.arrival + static_cast<Tick>(seed) * 1234567;
            const std::string spec = s.toSpecString();
            EXPECT_EQ(parseReal(valueOf(spec, "quota", ' '), 0.0, 1.0),
                      s.quota_fraction);
            if (s.arrival != 0) {
                EXPECT_EQ(parseReal(valueOf(spec, "arrival-ms", ' '), 0.0,
                                    kMax),
                          toMillis(s.arrival));
            }
        }
    }
    // And any finite, normal double.
    Rng rng(0x9a45e);
    for (int i = 0; i < 20000; ++i) {
        const auto bits = static_cast<std::uint64_t>(
            rng.uniformInt(std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max()));
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isnormal(v))
            continue;
        const std::string text = strprintf("%.17g", v);
        EXPECT_EQ(parseReal(text, -kMax, kMax), v) << text;
    }
}

} // namespace
} // namespace sentinel
