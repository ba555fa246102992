/**
 * @file
 * The executor's edge-page refcounts against the per-page reference
 * walk (tests/support/ref_page_refs.hh).
 *
 * A packing policy places tensors in a small arena at random gaps
 * (none, sub-page, page-aligned), never over another live tensor's
 * bytes, so edge pages end up shared by one to several live tensors.
 * After every allocation and free the policy checks, over the touched
 * span, that a page is mapped exactly when the reference counts it,
 * that Executor::pageRefCount() equals the reference count, and that
 * the onPageUnmapped() sequence matches the reference's.
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
    return mem::HeterogeneousMemory(fast, slow, mig);
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

/** Places tensors at random byte gaps inside a small arena and checks
 *  the executor's page state against RefPageRefs after every change. */
class PackingPolicy : public MemoryPolicy
{
  public:
    static constexpr mem::VirtAddr kArena = 64 * kPageSize;
    static constexpr std::uint64_t kArenaPages = 40;

    explicit PackingPolicy(std::uint64_t seed) : rng_(seed) {}

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
        expected_unmapped_.clear();
        unmapped_.clear();
        mapped_ -= pagesIn(ref_.release(pl, &expected_unmapped_));
        freed_ = pl;
    }

    void
    onPageUnmapped(Executor &, mem::PageId page) override
    {
        unmapped_.push_back(page);
    }

    void onLayerEnd(Executor &ex, int) override { settle(ex); }
    void onStepEnd(Executor &ex, int) override { settle(ex); }

    int errors() const { return errors_; }
    const std::string &firstError() const { return first_error_; }
    int singlePage() const { return single_page_; }
    int twoPage() const { return two_page_; }
    int aligned() const { return aligned_; }
    int maxSharing() const { return max_sharing_; }

  private:
    /** A start address for @p bytes that overlaps no live tensor's
     *  bytes: packed behind or ahead of a live tensor, a sub-page gap
     *  behind one, or on a page boundary; else past the arena. */
    mem::VirtAddr
    place(std::uint64_t bytes)
    {
        for (int attempt = 0; attempt < 32; ++attempt) {
            mem::VirtAddr a = kArena;
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
                a = kArena + kPageSize *
                                 static_cast<std::uint64_t>(rng_.uniformInt(
                                     0, kArenaPages - 1));
                break;
              default: {
                const mem::VirtAddr start = pick()->first;
                if (start < kArena + bytes)
                    continue;
                a = start - bytes;
                break;
              }
            }
            if (a + bytes <= kArena + kArenaPages * kPageSize &&
                isFree(a, bytes))
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
        expect(unmapped_ == expected_unmapped_, "onPageUnmapped sequence",
               *freed_);
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
    std::map<mem::VirtAddr, mem::VirtAddr> live_; ///< start -> end
    mem::VirtAddr overflow_ = 4096 * kPageSize;
    sentinel::testing::RefPageRefs ref_;
    std::uint64_t mapped_ = 0;

    std::optional<TensorPlacement> freed_;
    std::vector<mem::PageId> expected_unmapped_;
    std::vector<mem::PageId> unmapped_;

    int errors_ = 0;
    std::string first_error_;
    int single_page_ = 0;
    int two_page_ = 0;
    int aligned_ = 0;
    int max_sharing_ = 0;
};

/** @p n tensors with random sizes and lifetimes over 60 ops. */
Graph
makeChurnGraph(Rng &rng, int n)
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
        const bool prealloc = rng.bernoulli(0.08);
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
        PackingPolicy policy(seed);
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
