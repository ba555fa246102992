#include <gtest/gtest.h>

#include "common/logging.hh"

namespace sentinel {
namespace {

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("plain"), "plain");
    EXPECT_EQ(strprintf("%d + %d = %d", 2, 2, 4), "2 + 2 = 4");
    EXPECT_EQ(strprintf("%.3f", 1.5), "1.500");
    EXPECT_EQ(strprintf("%s/%s", "a", "b"), "a/b");
}

TEST(Strprintf, HandlesLongStrings)
{
    std::string big(10000, 'x');
    std::string out = strprintf("<%s>", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 2);
    EXPECT_EQ(out.front(), '<');
    EXPECT_EQ(out.back(), '>');
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(SENTINEL_PANIC("boom %d", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(SENTINEL_FATAL("bad config %s", "x"), std::runtime_error);
}

TEST(Logging, FatalWritesNothing)
{
    // fatal() only throws: the line is printed by whoever lets the
    // error reach main (harness::reportError()), so a caller that handles
    // it leaves nothing on stderr.
    std::string lines;
    std::string *outer = redirectLog(&lines);
    std::string what;
    try {
        SENTINEL_FATAL("unknown model '%s'", "resnet99");
    } catch (const FatalError &e) {
        what = e.what();
        EXPECT_STREQ(e.message(), "unknown model 'resnet99'");
    }
    redirectLog(outer);
    EXPECT_EQ(lines, "");
    EXPECT_EQ(what, "fatal: unknown model 'resnet99'");
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(SENTINEL_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Logging, AssertThrowsOnFalse)
{
    EXPECT_THROW(SENTINEL_ASSERT(false, "must fire"), std::logic_error);
}

TEST(Logging, VerboseToggle)
{
    bool before = verbose();
    setVerbose(true);
    EXPECT_TRUE(verbose());
    setVerbose(false);
    EXPECT_FALSE(verbose());
    setVerbose(before);
}

} // namespace
} // namespace sentinel
