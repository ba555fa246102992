/**
 * @file
 * The executor's edge-page refcounts against the per-page reference
 * walk (tests/support/ref_page_refs.hh).
 *
 * A packing policy places tensors in an arena at a multi-TiB base at
 * random gaps (none, sub-page, page-aligned), never over another live
 * tensor's bytes, so edge pages end up shared by one to several live
 * tensors.  After every allocation and free the policy checks, over
 * the touched span, that a page is mapped exactly when the reference
 * counts it, that Executor::pageRefCount() equals the reference
 * count, and that the unmap hooks saw what the reference unmapped:
 * its runs through onRangeUnmapped(), or its pages in order through
 * the default adapter's onPageUnmapped().
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dataflow/edge_refs.hh"
#include "dataflow/executor.hh"
#include "support/ref_page_refs.hh"

namespace sentinel::df {
namespace {

using mem::kPageSize;

mem::HeterogeneousMemory
makeHm()
{
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 1ull << 30, 6e9, 2e9, 300, 100 };
    mem::MigrationParams mig{ 4e9, 2e9, 2000 };
    return mem::HeterogeneousMemory({ fast, slow }, { mig });
}

std::uint64_t
mappedPages(const mem::HeterogeneousMemory &hm)
{
    std::uint64_t bytes = 0;
    for (unsigned t = 0; t < hm.numTiers(); ++t)
        bytes += hm.tier(mem::makeTier(t)).used();
    return bytes / kPageSize;
}

std::uint64_t
pagesIn(const std::vector<mem::PageRun> &runs)
{
    std::uint64_t n = 0;
    for (const mem::PageRun &r : runs)
        n += r.count;
    return n;
}

bool
sameRuns(const std::vector<mem::PageRun> &a,
         const std::vector<mem::PageRun> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const mem::PageRun &x, const mem::PageRun &y) {
                          return x.first == y.first && x.count == y.count;
                      });
}

/** Where PackingPolicy places tensors, and which unmap hook it takes. */
struct PackingShape {
    /** Arena base: 3 TiB, as policies place tensors at multi-TiB
     *  bases. */
    mem::VirtAddr base = (3ull << 40) + 64 * kPageSize;
    std::uint64_t pages = 40; ///< arena size
    /** Override onRangeUnmapped(); else only onPageUnmapped(), as a
     *  wrapper written against the per-page hook does. */
    bool by_range = true;
};

/** Places tensors at random byte gaps inside an arena and checks the
 *  executor's page state against RefPageRefs after every change.  It
 *  also mirrors the executor's edge-page updates into an EdgeRefs of
 *  the same size, to count the probes that wrapped around the table
 *  and the deletes that shifted an entry back. */
class PackingPolicy : public MemoryPolicy
{
  public:
    PackingPolicy(std::uint64_t seed, PackingShape shape,
                  std::size_t num_tensors)
        : rng_(seed), shape_(shape),
          overflow_(shape.base + (shape.pages + 4096) * kPageSize),
          mirror_(2 * num_tensors)
    {
    }

    std::string name() const override { return "packing"; }

    AllocDecision
    allocate(Executor &ex, const TensorDesc &t) override
    {
        settle(ex);
        return { place(t.bytes), mem::Tier::Fast };
    }

    void
    onTensorAllocated(Executor &ex, TensorId, const TensorPlacement &pl)
        override
    {
        live_[pl.addr] = pl.addr + pl.bytes;
        mapped_ += pagesIn(ref_.allocate(pl));
        mirror(pl, +1);
        const mem::PageId first = pl.firstPage();
        const mem::PageId last = pl.endPage() - 1;
        if (first == last)
            ++single_page_;
        else if (last == first + 1)
            ++two_page_;
        if (pl.addr % kPageSize == 0 && pl.bytes >= kPageSize)
            ++aligned_;
        for (mem::PageId p = first; p <= last; ++p)
            max_sharing_ = std::max(max_sharing_, ref_.count(p));
        check(ex, pl);
    }

    void
    onTensorFreed(Executor &ex, TensorId, const TensorPlacement &pl)
        override
    {
        settle(ex);
        live_.erase(pl.addr);
        expected_pages_.clear();
        pages_.clear();
        runs_.clear();
        expected_runs_ = ref_.release(pl, &expected_pages_);
        mapped_ -= pagesIn(expected_runs_);
        mirror(pl, -1);
        freed_ = pl;
    }

    void
    onRangeUnmapped(Executor &ex, mem::PageRun run) override
    {
        if (shape_.by_range)
            runs_.push_back(run);
        else
            MemoryPolicy::onRangeUnmapped(ex, run);
    }

    void
    onPageUnmapped(Executor &, mem::PageId page) override
    {
        pages_.push_back(page);
    }

    void onLayerEnd(Executor &ex, int) override { settle(ex); }
    void onStepEnd(Executor &ex, int) override { settle(ex); }

    int errors() const { return errors_; }
    const std::string &firstError() const { return first_error_; }
    int singlePage() const { return single_page_; }
    int twoPage() const { return two_page_; }
    int aligned() const { return aligned_; }
    int maxSharing() const { return max_sharing_; }
    int wraps() const { return wraps_; }
    int shifts() const { return shifts_; }

  private:
    /** The executor's edge-page update for @p pl: first page, then
     *  last. */
    void
    mirror(const TensorPlacement &pl, std::int32_t delta)
    {
        mirrorPage(pl.firstPage(), delta);
        if (pl.endPage() - 1 != pl.firstPage())
            mirrorPage(pl.endPage() - 1, delta);
    }

    void
    mirrorPage(mem::PageId p, std::int32_t delta)
    {
        const std::size_t at = mirror_.slot(p);
        const std::int32_t after = mirror_.add(p, delta);
        if (delta > 0 && after == 1 && mirror_.slot(p) < mirror_.home(p))
            ++wraps_;
        if (delta < 0 && after == 0 && mirror_.occupied(at))
            ++shifts_;
    }

    /** A start address for @p bytes that overlaps no live tensor's
     *  bytes: packed behind or ahead of a live tensor, a sub-page gap
     *  behind one, or on a page boundary; else past the arena. */
    mem::VirtAddr
    place(std::uint64_t bytes)
    {
        const mem::VirtAddr lo = shape_.base;
        const mem::VirtAddr hi = shape_.base + shape_.pages * kPageSize;
        for (int attempt = 0; attempt < 32; ++attempt) {
            mem::VirtAddr a = lo;
            const auto pick = [&]() {
                auto it = live_.begin();
                std::advance(it, rng_.uniformInt(
                                     0, static_cast<std::int64_t>(
                                            live_.size()) - 1));
                return it;
            };
            switch (live_.empty() ? 2 : rng_.uniformInt(0, 3)) {
              case 0:
                a = pick()->second;
                break;
              case 1:
                a = pick()->second +
                    static_cast<std::uint64_t>(
                        rng_.uniformInt(1, kPageSize - 1));
                break;
              case 2:
                a = lo + kPageSize * static_cast<std::uint64_t>(
                                          rng_.uniformInt(
                                              0, static_cast<std::int64_t>(
                                                     shape_.pages) - 1));
                break;
              default: {
                const mem::VirtAddr start = pick()->first;
                if (start < lo + bytes)
                    continue;
                a = start - bytes;
                break;
              }
            }
            if (a + bytes <= hi && isFree(a, bytes))
                return a;
        }
        const mem::VirtAddr a = overflow_;
        overflow_ += bytes;
        return a;
    }

    bool
    isFree(mem::VirtAddr a, std::uint64_t bytes) const
    {
        auto next = live_.lower_bound(a);
        if (next != live_.end() && next->first < a + bytes)
            return false;
        return next == live_.begin() || std::prev(next)->second <= a;
    }

    void
    settle(Executor &ex)
    {
        if (!freed_)
            return;
        if (shape_.by_range)
            expect(sameRuns(runs_, expected_runs_) && pages_.empty(),
                   "onRangeUnmapped runs", *freed_);
        else
            expect(pages_ == expected_pages_ && runs_.empty(),
                   "onPageUnmapped sequence", *freed_);
        check(ex, *freed_);
        freed_.reset();
    }

    /** Compare the executor with the reference over @p pl's pages and
     *  one page either side, and the total of mapped pages. */
    void
    check(Executor &ex, const TensorPlacement &pl)
    {
        const mem::PageId lo = pl.firstPage() > 0 ? pl.firstPage() - 1 : 0;
        for (mem::PageId p = lo; p <= pl.endPage(); ++p) {
            const int want = ref_.count(p);
            expect(ex.hm().isMapped(p) == (want > 0), "isMapped", pl, p);
            expect(ex.pageRefCount(p) == want, "pageRefCount", pl, p);
        }
        expect(mappedPages(ex.hm()) == mapped_ &&
                   mapped_ == ref_.numReferenced(),
               "mapped page total", pl);
    }

    void
    expect(bool ok, const char *what, const TensorPlacement &pl,
           mem::PageId page = mem::kInvalidPage)
    {
        if (ok)
            return;
        if (errors_++ == 0) {
            std::ostringstream os;
            os << what << " mismatch for placement [" << pl.addr << ", +"
               << pl.bytes << ")";
            if (page != mem::kInvalidPage)
                os << " at page " << page;
            first_error_ = os.str();
        }
    }

    Rng rng_;
    PackingShape shape_;
    std::map<mem::VirtAddr, mem::VirtAddr> live_; ///< start -> end
    mem::VirtAddr overflow_;
    sentinel::testing::RefPageRefs ref_;
    std::uint64_t mapped_ = 0;
    EdgeRefs mirror_;

    std::optional<TensorPlacement> freed_;
    std::vector<mem::PageRun> expected_runs_;
    std::vector<mem::PageId> expected_pages_;
    std::vector<mem::PageRun> runs_;   ///< onRangeUnmapped() since freed_
    std::vector<mem::PageId> pages_;   ///< onPageUnmapped() since freed_

    int errors_ = 0;
    std::string first_error_;
    int single_page_ = 0;
    int two_page_ = 0;
    int aligned_ = 0;
    int max_sharing_ = 0;
    int wraps_ = 0;
    int shifts_ = 0;
};

/** @p n tensors with random sizes and lifetimes over 60 ops, each
 *  preallocated (live for the whole run) with probability
 *  @p prealloc_p. */
Graph
makeChurnGraph(Rng &rng, int n, double prealloc_p = 0.08)
{
    constexpr int kOps = 60;
    Graph g("churn", 1);
    std::vector<std::vector<TensorUse>> uses(kOps);
    for (int i = 0; i < n; ++i) {
        std::uint64_t bytes = 0;
        switch (rng.uniformInt(0, 3)) {
          case 0:
          case 1:
            bytes = static_cast<std::uint64_t>(
                rng.uniformInt(1, kPageSize - 1));
            break;
          case 2:
            bytes = kPageSize * static_cast<std::uint64_t>(
                                    rng.uniformInt(1, 3));
            break;
          default:
            bytes = kPageSize * static_cast<std::uint64_t>(
                                    rng.uniformInt(1, 3)) +
                    static_cast<std::uint64_t>(
                        rng.uniformInt(1, kPageSize - 1));
            break;
        }
        const bool prealloc = rng.bernoulli(prealloc_p);
        const TensorId id =
            g.addTensor(strprintf("t%d", i), bytes,
                        prealloc ? TensorKind::Weight : TensorKind::Temp,
                        prealloc);
        const int a = static_cast<int>(rng.uniformInt(0, kOps - 1));
        const int b = static_cast<int>(
            rng.uniformInt(a, std::min(kOps - 1, a + 12)));
        uses[static_cast<std::size_t>(a)].push_back(
            TensorUse{ id, true, bytes, 1.0 });
        if (b != a)
            uses[static_cast<std::size_t>(b)].push_back(
                TensorUse{ id, false, bytes, 1.0 });
    }
    int emitted = 0; // skip unused ops, keeping every layer non-empty
    for (auto &u : uses)
        if (!u.empty()) {
            g.addOp(strprintf("op%d", emitted), OpType::Other,
                    emitted / 2, 1e5, std::move(u));
            ++emitted;
        }
    g.finalize();
    return g;
}

TEST(Executor, EdgeRefcountsMatchPerPageWalk)
{
    int single = 0, two = 0, aligned = 0, sharing = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(0x5eed0000ull + seed);
        Graph g = makeChurnGraph(rng, 240);
        auto hm = makeHm();
        PackingPolicy policy(seed, PackingShape{}, g.numTensors());
        Executor ex(g, hm, ExecParams{}, policy);
        ex.run(3);
        EXPECT_EQ(policy.errors(), 0) << policy.firstError();
        single += policy.singlePage();
        two += policy.twoPage();
        aligned += policy.aligned();
        sharing = std::max(sharing, policy.maxSharing());
    }
    // The shapes the edge rule must get right all occurred.
    EXPECT_GT(single, 0);
    EXPECT_GT(two, 0);
    EXPECT_GT(aligned, 0);
    EXPECT_GE(sharing, 3);

    // A crowded table: 2000 tensors, most of them live throughout,
    // spread over a wide arena so their edge pages are distinct.  The
    // table (8192 slots) runs about a third full, so probes wrap
    // around its end and frees shift entries back.
    int wraps = 0, shifts = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message() << "crowded seed " << seed);
        Rng rng(0xc0de0000ull + seed);
        Graph g = makeChurnGraph(rng, 2000, 0.8);
        auto hm = makeHm();
        PackingShape shape;
        shape.base = (5ull << 40) + 3 * kPageSize;
        shape.pages = 9000;
        PackingPolicy policy(seed, shape, g.numTensors());
        Executor ex(g, hm, ExecParams{}, policy);
        ex.run(3);
        EXPECT_EQ(policy.errors(), 0) << policy.firstError();
        wraps += policy.wraps();
        shifts += policy.shifts();
    }
    EXPECT_GT(wraps, 0);
    EXPECT_GT(shifts, 0);
}

TEST(MemoryPolicy, UnmapAdapterHandsEveryPageInOrder)
{
    // A policy that overrides only onPageUnmapped(), as a forwarding
    // wrapper written against the per-page hook does: the default
    // onRangeUnmapped() hands it each unmapped page, in page order.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(0x5eed0000ull + seed);
        Graph g = makeChurnGraph(rng, 240);
        auto hm = makeHm();
        PackingShape shape;
        shape.by_range = false;
        PackingPolicy policy(seed, shape, g.numTensors());
        Executor ex(g, hm, ExecParams{}, policy);
        ex.run(3);
        EXPECT_EQ(policy.errors(), 0) << policy.firstError();
    }
}

/** Places tensors end to end and counts its onPageUnmapped() calls,
 *  each of which then runs the base hook, as a policy that overrides
 *  neither unmap hook does. */
class IgnoringPolicy : public MemoryPolicy
{
  public:
    std::string name() const override { return "ignoring"; }

    AllocDecision
    allocate(Executor &, const TensorDesc &t) override
    {
        const mem::VirtAddr a = next_;
        next_ += mem::roundUpToPages(t.bytes) + kPageSize;
        return { a, mem::Tier::Fast };
    }

    void
    onRangeUnmapped(Executor &ex, mem::PageRun run) override
    {
        ++runs;
        MemoryPolicy::onRangeUnmapped(ex, run);
    }

    void
    onPageUnmapped(Executor &ex, mem::PageId page) override
    {
        ++pages;
        MemoryPolicy::onPageUnmapped(ex, page);
    }

    int runs = 0;
    int pages = 0;

  private:
    mem::VirtAddr next_ = 1ull << 40;
};

TEST(MemoryPolicy, UnmapAdapterStopsWhenNothingListens)
{
    Rng rng(0x5eed0001ull);
    Graph g = makeChurnGraph(rng, 240);
    auto hm = makeHm();
    IgnoringPolicy policy;
    Executor ex(g, hm, ExecParams{}, policy);
    ex.run(3);
    EXPECT_GT(policy.runs, 100);
    EXPECT_EQ(policy.pages, 1);
}

TEST(EdgeRefs, WrapsAndShiftsBackAcrossTheEnd)
{
    // Three pages whose probes start in the last slot: the second and
    // third wrap to slots 0 and 1, and freeing the first shifts both
    // back across the end.
    EdgeRefs t(8);
    ASSERT_EQ(t.capacity(), 16u);
    const std::size_t last = t.capacity() - 1;
    std::vector<mem::PageId> tail;
    for (mem::PageId p = 3ull << 28; tail.size() < 3; ++p)
        if (t.home(p) == last)
            tail.push_back(p);
    for (mem::PageId p : tail)
        EXPECT_EQ(t.add(p, 1), 1);
    EXPECT_EQ(t.add(tail[2], 1), 2);
    EXPECT_EQ(t.slot(tail[0]), last);
    EXPECT_EQ(t.slot(tail[1]), 0u);
    EXPECT_EQ(t.slot(tail[2]), 1u);
    EXPECT_EQ(t.add(tail[0], -1), 0);
    EXPECT_EQ(t.slot(tail[0]), t.capacity());
    EXPECT_EQ(t.slot(tail[1]), last);
    EXPECT_EQ(t.slot(tail[2]), 0u);
    EXPECT_FALSE(t.occupied(1));
    EXPECT_EQ(t.count(tail[2]), 2);
    EXPECT_THROW(t.add(tail[0], -1), std::logic_error);
}

TEST(EdgeRefs, RandomizedDifferentialAgainstAMap)
{
    // Up to 64 pages live in 128 slots, drawn from 200 pages at two
    // multi-TiB bases; every count is checked after every update.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed);
        EdgeRefs t(64);
        std::map<mem::PageId, std::int32_t> ref;
        std::vector<mem::PageId> pool;
        for (mem::PageId i = 0; i < 100; ++i) {
            pool.push_back((3ull << 28) + 5 * i);
            pool.push_back((7ull << 30) + i);
        }
        for (int op = 0; op < 20000; ++op) {
            const std::int64_t k = rng.uniformInt(
                0, static_cast<std::int64_t>(pool.size()) - 1);
            const mem::PageId p = pool[static_cast<std::size_t>(k)];
            const std::int32_t delta = rng.bernoulli(0.5) ? 1 : -1;
            if (!ref.count(p) && (delta < 0 || ref.size() == 64))
                continue;
            const std::int32_t want = (ref[p] += delta);
            if (want == 0)
                ref.erase(p);
            ASSERT_EQ(t.add(p, delta), want) << "op " << op;
            for (mem::PageId q : pool) {
                auto r = ref.find(q);
                ASSERT_EQ(t.count(q), r == ref.end() ? 0 : r->second)
                    << "op " << op << " page " << q;
            }
        }
    }
}

/** Places every tensor at a fixed address from a table. */
class FixedPolicy : public MemoryPolicy
{
  public:
    explicit FixedPolicy(std::map<TensorId, mem::VirtAddr> at)
        : at_(std::move(at))
    {
    }
    std::string name() const override { return "fixed"; }
    AllocDecision
    allocate(Executor &, const TensorDesc &t) override
    {
        return { at_.at(t.id), mem::Tier::Fast };
    }

  private:
    std::map<TensorId, mem::VirtAddr> at_;
};

TEST(Executor, OverlappingLiveTensorsPanic)
{
    // b lands inside a's third page while a is live: the two share
    // bytes, which no placement may do.
    Graph g("overlap", 1);
    TensorId a = g.addTensor("a", 4 * kPageSize, TensorKind::Weight, true);
    TensorId b = g.addTensor("b", 100, TensorKind::Temp);
    g.addOp("op", OpType::Other, 0, 1e5,
            { TensorUse{ a, false, 4 * kPageSize, 1.0 },
              TensorUse{ b, true, 100, 1.0 } });
    g.finalize();

    auto hm = makeHm();
    FixedPolicy policy({ { a, 16 * kPageSize },
                         { b, 18 * kPageSize + 8 } });
    Executor ex(g, hm, ExecParams{}, policy);
    EXPECT_THROW(ex.runStep(), std::logic_error);
}

} // namespace
} // namespace sentinel::df
