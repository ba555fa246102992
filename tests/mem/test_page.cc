#include <gtest/gtest.h>

#include "mem/page.hh"
#include "mem/page_directory.hh"

namespace sentinel::mem {
namespace {

TEST(Page, Constants)
{
    EXPECT_EQ(kPageSize, 4096u);
}

TEST(Page, TierHelpers)
{
    EXPECT_STREQ(tierName(Tier::Fast), "fast");
    EXPECT_STREQ(tierName(Tier::Slow), "slow");
}

TEST(Page, SpanMath)
{
    // A tensor of exactly two pages starting mid-page touches three.
    EXPECT_EQ(pagesSpanned(2048, 2 * kPageSize), 3u);
    // Sub-page object within one page.
    EXPECT_EQ(pagesSpanned(100, 200), 1u);
    // Object ending exactly on a boundary.
    EXPECT_EQ(pagesSpanned(0, 2 * kPageSize), 2u);
    EXPECT_EQ(pageCeil(1), 1u);
    EXPECT_EQ(pageCeil(kPageSize), 1u);
    EXPECT_EQ(pageCeil(kPageSize + 1), 2u);
}

TEST(PageDirectory, SpanStopsAtTheChunkSeam)
{
    constexpr PageId kSeam = 1ull << 16;
    PageDirectory<std::uint32_t> dir;
    std::uint32_t *s = nullptr;
    // A range that crosses the seam yields the first chunk's part...
    ASSERT_EQ(dir.span(kSeam - 3, 10, s), 3u);
    for (int i = 0; i < 3; ++i)
        s[i] = 7;
    // ...then the rest, from the next chunk; a short range fits whole.
    ASSERT_EQ(dir.span(kSeam, 7, s), 7u);
    s[0] = 9;
    EXPECT_EQ(dir.span(5, 4, s), 4u);
    EXPECT_EQ(dir.get(kSeam - 4), 0u);
    EXPECT_EQ(dir.get(kSeam - 3), 7u);
    EXPECT_EQ(dir.get(kSeam - 1), 7u);
    EXPECT_EQ(dir.get(kSeam), 9u);
}

TEST(PageDirectory, ClearRangeSkipsUntouchedChunks)
{
    constexpr PageId kSeam = 1ull << 16;
    PageDirectory<std::uint32_t> dir;
    for (PageId p = kSeam - 4; p < kSeam + 4; ++p)
        dir.ref(p) = 5;
    // A range over the touched seam, two untouched chunks and back:
    // only its pages are reset, and no chunk is created.
    dir.clearRange({ kSeam - 2, 3 * kSeam });
    EXPECT_EQ(dir.get(kSeam - 3), 5u);
    for (PageId p = kSeam - 2; p < kSeam + 4; ++p)
        EXPECT_EQ(dir.get(p), 0u) << p;
    std::uint32_t *s = nullptr;
    EXPECT_EQ(dir.presentSpan(2 * kSeam + 5, 10, s), 10u);
    EXPECT_EQ(s, nullptr);
    dir.presentSpan(3 * kSeam, 1, s);
    EXPECT_EQ(s, nullptr);
    EXPECT_EQ(dir.presentSpan(kSeam - 3, 10, s), 3u);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s[0], 5u);
}

} // namespace
} // namespace sentinel::mem
