/**
 * @file
 * A chunked direct-indexed map from PageId to a small POD value.
 *
 * The simulator's hot paths key several side tables by page id
 * (executor edge-page reference counts, UM and IAL queue state).  Virtual
 * addresses are sparse — policies place tensors at multi-TiB bases —
 * so a flat array is out, but an unordered_map pays a hash + probe on
 * every access.  PageDirectory splits the id space into 2^16-page
 * chunks allocated on first touch: a lookup is two loads and chunks
 * are recycled across clear() with an epoch stamp, so steady-state
 * operation allocates nothing.
 *
 * T must be trivially copyable and value-initialize to its "absent"
 * state (e.g. a zero refcount): clear() simply bumps the epoch and a
 * recycled chunk is refilled with T{}.  A destroyed directory's chunks
 * are recycled the same way by the next directory of T on its thread.
 */

#ifndef SENTINEL_MEM_PAGE_DIRECTORY_HH
#define SENTINEL_MEM_PAGE_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "mem/page.hh"

namespace sentinel::mem {

template <typename T>
class PageDirectory
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "PageDirectory chunks are recycled by refilling T{}");

  public:
    PageDirectory() = default;
    PageDirectory(PageDirectory &&) = default;
    PageDirectory &operator=(PageDirectory &&) = default;

    /** Hands the chunks to this thread's spares. */
    ~PageDirectory()
    {
        for (Chunk &ch : chunks_)
            if (ch.slots)
                spares().push_back(std::move(ch.slots));
    }

    /** Mutable slot for @p page, creating its chunk if needed. */
    T &
    ref(PageId page)
    {
        std::uint64_t c = page >> kChunkBits;
        SENTINEL_ASSERT(page < kMaxPages, "page id out of range");
        if (c >= chunks_.size())
            chunks_.resize(c + 1);
        Chunk &ch = chunks_[c];
        if (ch.epoch != epoch_) {
            if (!ch.slots && !spares().empty()) {
                ch.slots = std::move(spares().back());
                spares().pop_back();
            }
            if (!ch.slots)
                ch.slots = std::make_unique<T[]>(kChunkPages);
            std::fill_n(ch.slots.get(), kChunkPages, T{});
            ch.epoch = epoch_;
        }
        return ch.slots[page & kChunkMask];
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

    /** Slot for @p page, or nullptr if its chunk was never touched. */
    const T *
    find(PageId page) const
    {
        std::uint64_t c = page >> kChunkBits;
        if (c >= chunks_.size())
            return nullptr;
        const Chunk &ch = chunks_[c];
        if (ch.epoch != epoch_)
            return nullptr;
        return &ch.slots[page & kChunkMask];
    }

    /** Value for @p page; T{} where nothing was ever stored. */
    T
    get(PageId page) const
    {
        const T *p = find(page);
        return p ? *p : T{};
    }

    /** Drop all values.  O(1): chunks are recycled lazily. */
    void
    clear()
    {
        if (++epoch_ == 0) { // epoch wrap: stale stamps could collide
            chunks_.clear();
            epoch_ = 1;
        }
    }

  private:
    static constexpr unsigned kChunkBits = 16;
    static constexpr std::uint64_t kChunkPages = 1ull << kChunkBits;
    static constexpr std::uint64_t kChunkMask = kChunkPages - 1;
    static constexpr std::uint64_t kMaxPages = 1ull << 36;

    struct Chunk {
        std::uint32_t epoch = 0; ///< valid iff == PageDirectory::epoch_
        std::unique_ptr<T[]> slots;
    };

    /**
     * Chunks of this thread's destroyed directories.  A directory built
     * after another takes them before allocating, so it reuses memory
     * the process has already faulted in rather than leaving that to
     * the allocator's mmap and trim heuristics.  Their consumer is the
     * executors' edge-page refcounts (Executor::page_refs_): a cell
     * builds one executor to profile and another to train, and each
     * cell of a sweep builds its own.  The spares are as many as this
     * thread's directories of T ever held at once.
     */
    static std::vector<std::unique_ptr<T[]>> &
    spares()
    {
        thread_local std::vector<std::unique_ptr<T[]>> s;
        return s;
    }

    std::vector<Chunk> chunks_;
    std::uint32_t epoch_ = 1;
};

} // namespace sentinel::mem

#endif // SENTINEL_MEM_PAGE_DIRECTORY_HH
