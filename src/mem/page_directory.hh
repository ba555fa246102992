/**
 * @file
 * A chunked direct-indexed map from PageId to a small value.
 *
 * The reactive baselines key their queue state by page id (UM's LRU
 * record ids, IAL's in-list flags and heat counts).  Virtual
 * addresses are sparse — policies place tensors at multi-TiB bases —
 * so a flat array is out, but an unordered_map pays a hash + probe on
 * every access.  PageDirectory splits the id space into 2^16-page
 * chunks allocated on first touch and kept for the directory's life:
 * a lookup is two loads, and once the touched chunks exist nothing
 * allocates.
 *
 * T must value-initialize to its "absent" state (e.g. a zero count):
 * a fresh chunk holds T{} throughout.
 */

#ifndef SENTINEL_MEM_PAGE_DIRECTORY_HH
#define SENTINEL_MEM_PAGE_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "mem/page.hh"

namespace sentinel::mem {

template <typename T>
class PageDirectory
{
  public:
    /** Mutable slot for @p page, creating its chunk if needed. */
    T &
    ref(PageId page)
    {
        std::uint64_t c = page >> kChunkBits;
        SENTINEL_ASSERT(page < kMaxPages, "page id out of range");
        if (c >= chunks_.size())
            chunks_.resize(c + 1);
        std::unique_ptr<T[]> &ch = chunks_[c];
        if (!ch)
            ch = std::make_unique<T[]>(kChunkPages);
        return ch[page & kChunkMask];
    }

    /**
     * Mutable slots for the first n pages of [page, page + count),
     * where n stops at the end of @p page's chunk: @p slots points at
     * @p page's slot and the next n - 1 slots follow it.  Creates the
     * chunk if needed.  @return n.
     */
    std::uint64_t
    span(PageId page, std::uint64_t count, T *&slots)
    {
        slots = &ref(page);
        return std::min(count, kChunkPages - (page & kChunkMask));
    }

    /**
     * As span(), but creates nothing: @p slots is nullptr where
     * @p page's chunk was never touched (its n values are all T{}).
     */
    std::uint64_t
    presentSpan(PageId page, std::uint64_t count, T *&slots)
    {
        const std::uint64_t c = page >> kChunkBits;
        slots = c < chunks_.size() && chunks_[c]
                    ? &chunks_[c][page & kChunkMask]
                    : nullptr;
        return std::min(count, kChunkPages - (page & kChunkMask));
    }

    /** Reset the pages of @p run to T{}, skipping untouched chunks. */
    void
    clearRange(PageRun run)
    {
        T *slots = nullptr;
        for (PageId p = run.first; p < run.endPage();) {
            const std::uint64_t n = presentSpan(p, run.endPage() - p, slots);
            if (slots)
                std::fill_n(slots, n, T{});
            p += n;
        }
    }

    /** Value for @p page; T{} where nothing was ever stored. */
    T
    get(PageId page) const
    {
        const std::uint64_t c = page >> kChunkBits;
        return c < chunks_.size() && chunks_[c]
                   ? chunks_[c][page & kChunkMask]
                   : T{};
    }

  private:
    static constexpr unsigned kChunkBits = 16;
    static constexpr std::uint64_t kChunkPages = 1ull << kChunkBits;
    static constexpr std::uint64_t kChunkMask = kChunkPages - 1;
    static constexpr std::uint64_t kMaxPages = 1ull << 36;

    std::vector<std::unique_ptr<T[]>> chunks_;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_DIRECTORY_HH
