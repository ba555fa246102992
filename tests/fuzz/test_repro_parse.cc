/**
 * @file
 * `.sentinelrepro` is read from disk and handed around by people, so
 * FuzzCase::parse() treats it as untrusted input: a malformed file must
 * fail with ConfigError, never with a crash or an out-of-memory later
 * in the replay.  One regression test per finding, then seeded token
 * mutations of serialized cases.
 */

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "harness/oracle.hh"

namespace sentinel::harness {
namespace {

std::string
withLine(const std::string &line)
{
    return "# sentinelrepro v1\nmodel=synthetic:11\n" + line + "\n";
}

// NaN fails neither `x <= lo` nor `x > hi`, so each range check used
// to wave it through; `fraction=nan` then sized the fast tier from NaN
// and the replay died in std::bad_alloc.
TEST(ReproParse, NanFractionIsRejected)
{
    EXPECT_THROW(FuzzCase::parse(withLine("fraction=nan")), ConfigError);
    EXPECT_THROW(FuzzCase::parse(withLine("fraction=-nan")), ConfigError);
}

TEST(ReproParse, NanInjectCapacityIsRejected)
{
    EXPECT_THROW(FuzzCase::parse(withLine("inject_capacity=nan")),
                 ConfigError);
}

TEST(ReproParse, NanInjectTrafficIsRejected)
{
    EXPECT_THROW(FuzzCase::parse(withLine("inject_traffic=nan")),
                 ConfigError);
}

// Both keys used to parse up to INT_MAX; a replay of either value then
// died in std::bad_alloc building the graph or the step stats.
TEST(ReproParse, HugeBatchIsRejected)
{
    EXPECT_THROW(FuzzCase::parse(withLine("batch=2147483647")),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse(withLine(
                     "batch=" + std::to_string(FuzzCase::kMaxBatch + 1))),
                 ConfigError);
}

TEST(ReproParse, HugeStepsIsRejected)
{
    EXPECT_THROW(FuzzCase::parse(withLine("steps=2147483647")),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse(withLine(
                     "steps=" + std::to_string(FuzzCase::kMaxSteps + 1))),
                 ConfigError);
}

TEST(ReproParse, BatchAndStepsAtTheBoundParse)
{
    FuzzCase c = FuzzCase::parse(
        withLine("batch=" + std::to_string(FuzzCase::kMaxBatch) +
                 "\nsteps=" + std::to_string(FuzzCase::kMaxSteps)));
    EXPECT_EQ(c.batch, FuzzCase::kMaxBatch);
    EXPECT_EQ(c.steps, FuzzCase::kMaxSteps);
}

bool
sameCase(const FuzzCase &a, const FuzzCase &b)
{
    return a.model == b.model && a.batch == b.batch &&
           a.fast_fraction == b.fast_fraction && a.steps == b.steps &&
           a.warmup == b.warmup && a.cpu == b.cpu && a.gpu == b.gpu &&
           a.planner == b.planner && a.tiers == b.tiers &&
           a.inject_capacity == b.inject_capacity &&
           a.inject_traffic == b.inject_traffic &&
           a.inject_policy == b.inject_policy;
}

/** A serialized case as lines of tokens: the header is one token, an
 *  entry two (key, value). */
using Line = std::vector<std::string>;

std::vector<Line>
tokenize(const std::string &text)
{
    std::vector<Line> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        std::string line = text.substr(pos, nl - pos);
        pos = nl == std::string::npos ? text.size() : nl + 1;
        std::size_t eq = line.find('=');
        if (line.empty() || line[0] == '#' || eq == std::string::npos)
            out.push_back({ line });
        else
            out.push_back({ line.substr(0, eq), line.substr(eq + 1) });
    }
    return out;
}

std::string
join(const std::vector<Line> &lines)
{
    std::string text;
    for (const Line &l : lines) {
        for (std::size_t i = 0; i < l.size(); ++i)
            text += (i > 0 ? "=" : "") + l[i];
        text += "\n";
    }
    return text;
}

TEST(ReproParse, SeededTokenMutationsAreRejectedOrRoundTrip)
{
    // Each trial applies one to three seeded edits to a serialized
    // case: a value or a key replaced by a hostile token, a line
    // dropped, doubled, or two lines swapped.  A parse must either
    // throw ConfigError or yield a case that serializes to text parsing
    // back to an equal case (NaN never compares equal, so it cannot
    // slip through).
    FuzzCase llm;
    llm.model = "llm:tiny:l=2,seq=64";
    llm.tiers = 3;
    llm.planner = "interval";
    llm.inject_capacity = 0.25;
    llm.inject_traffic = -0.5;
    const std::vector<std::vector<Line>> bases = {
        tokenize(FuzzCase::random(11).serialize()),
        tokenize(llm.serialize()),
    };
    const char *const kTokens[] = {
        "nan", "-nan", "inf", "-1", "0", "1e400", "2147483648", "",
        " 7", "0x1p-1", "synthetic:", "llm:tiny:l=", "tiers",
    };
    constexpr std::int64_t kNumTokens =
        static_cast<std::int64_t>(std::size(kTokens));
    Rng rng(0x5e9e11ull);
    int parsed = 0;
    int rejected = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<Line> lines =
            bases[static_cast<std::size_t>(trial) % bases.size()];
        const int edits = static_cast<int>(rng.uniformInt(1, 3));
        for (int e = 0; e < edits && !lines.empty(); ++e) {
            const auto last = static_cast<std::int64_t>(lines.size()) - 1;
            const auto at =
                static_cast<std::size_t>(rng.uniformInt(0, last));
            Line &l = lines[at];
            switch (rng.uniformInt(0, 5)) {
              case 0:
              case 1:
                l.back() = kTokens[rng.uniformInt(0, kNumTokens - 1)];
                break;
              case 2:
                l.front() = kTokens[rng.uniformInt(0, kNumTokens - 1)];
                break;
              case 3:
                lines.erase(lines.begin() + static_cast<long>(at));
                break;
              case 4: {
                Line copy = l;
                lines.insert(lines.begin() + static_cast<long>(at),
                             std::move(copy));
                break;
              }
              default:
                std::swap(l, lines[static_cast<std::size_t>(
                                 rng.uniformInt(0, last))]);
                break;
            }
        }
        const std::string text = join(lines);
        SCOPED_TRACE(::testing::Message() << "trial " << trial << "\n"
                                          << text);
        FuzzCase c;
        try {
            c = FuzzCase::parse(text);
        } catch (const ConfigError &) {
            ++rejected;
            continue;
        }
        ++parsed;
        FuzzCase back;
        ASSERT_NO_THROW(back = FuzzCase::parse(c.serialize()));
        EXPECT_TRUE(sameCase(c, back)) << c.serialize();
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace sentinel::harness
