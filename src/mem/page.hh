/**
 * @file
 * Page-granularity basics shared by the whole memory subsystem.
 *
 * All placement state in this reproduction is per 4 KiB page, exactly
 * because the paper's central observation is that OS/hardware manage
 * memory at page granularity while frameworks manage tensors — and that
 * the mismatch (page-level false sharing) costs performance.
 */

#ifndef SENTINEL_MEM_PAGE_HH
#define SENTINEL_MEM_PAGE_HH

#include <cstdint>

namespace sentinel::mem {

/** Page size in bytes (x86-64 base pages, as in the paper's testbed). */
constexpr std::uint64_t kPageSize = 4096;

/** Virtual page number within the simulated address space. */
using PageId = std::uint64_t;

constexpr PageId kInvalidPage = ~0ull;

/** Byte offset within the simulated virtual address space. */
using VirtAddr = std::uint64_t;

/** Page containing @p addr. */
constexpr PageId
pageOf(VirtAddr addr)
{
    return addr / kPageSize;
}

/** First page at or after @p addr. */
constexpr PageId
pageCeil(VirtAddr addr)
{
    return (addr + kPageSize - 1) / kPageSize;
}

/** Number of pages spanned by the range [addr, addr + bytes). */
constexpr std::uint64_t
pagesSpanned(VirtAddr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return 0;
    return pageCeil(addr + bytes) - pageOf(addr);
}

/** Round @p bytes up to a whole number of pages. */
constexpr std::uint64_t
roundUpToPages(std::uint64_t bytes)
{
    return pageCeil(bytes) * kPageSize;
}

/**
 * A contiguous run of pages: [first, first + count).
 *
 * Tensors occupy contiguous page ranges, so the hot paths (executor
 * access loop, mapping, migration bookkeeping) operate on runs and only
 * fall back to single pages across migration boundaries.
 */
struct PageRun {
    PageId first = kInvalidPage;
    std::uint64_t count = 0;

    constexpr PageId endPage() const { return first + count; }
    constexpr bool empty() const { return count == 0; }
};

/**
 * A tier id within an ordered heterogeneous memory hierarchy.
 *
 * Tiers are numbered fastest-first: 0 is the fastest tier (DRAM on CPU
 * systems, HBM on GPU systems) and larger indices are progressively
 * slower (host DRAM, Optane PMM, NVMe).  The classic two-tier
 * configuration uses exactly {Fast, Slow}; N-tier chains reuse the same
 * enum as an index (see makeTier / tierIndex) so two-tier code keeps
 * reading naturally.
 */
enum class Tier : std::uint8_t {
    Fast = 0, ///< fastest tier: DRAM (CPU systems) or HBM (GPU systems)
    Slow = 1, ///< second tier: PMM (CPU systems) or host DRAM (GPU systems)
};

/** Upper bound on chain length (tier index must fit 3 state bits). */
constexpr unsigned kMaxTiers = 8;

constexpr unsigned
tierIndex(Tier t)
{
    return static_cast<unsigned>(t);
}

constexpr Tier
makeTier(unsigned index)
{
    return static_cast<Tier>(index);
}

/**
 * Positional tier name: "fast", "slow", "slow2", "slow3", ...  The
 * first two match the legacy two-tier vocabulary exactly (telemetry
 * traces and tables depend on it); deeper tiers extend the "slow" side
 * of the chain.
 */
constexpr const char *
tierName(Tier t)
{
    constexpr const char *names[kMaxTiers] = {
        "fast", "slow", "slow2", "slow3",
        "slow4", "slow5", "slow6", "slow7",
    };
    return names[tierIndex(t) < kMaxTiers ? tierIndex(t) : kMaxTiers - 1];
}

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_HH
