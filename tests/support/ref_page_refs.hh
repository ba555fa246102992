/**
 * @file
 * The per-page reference walk the executor's edge-page refcounts must
 * match, for differential tests.
 *
 * Every page a placement spans carries a count in a std::map.  An
 * allocation increments each page and maps the maximal runs of pages
 * that went from 0 to 1; a free decrements each page, reports every
 * page that reached 0 (in page order, as the executor's
 * onPageUnmapped() hook sees them) and unmaps the maximal runs of
 * such pages.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_PAGE_REFS_HH
#define SENTINEL_TESTS_SUPPORT_REF_PAGE_REFS_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "dataflow/placement.hh"
#include "mem/page.hh"

namespace sentinel::testing {

class RefPageRefs
{
  public:
    /** Reference @p pl's pages.  @return the runs to map. */
    std::vector<mem::PageRun>
    allocate(const df::TensorPlacement &pl)
    {
        return walk(pl, [this](mem::PageId p) { return ++refs_[p] == 1; });
    }

    /** Drop @p pl's references, appending each page that reached 0 to
     *  @p unmapped.  @return the runs to unmap. */
    std::vector<mem::PageRun>
    release(const df::TensorPlacement &pl,
            std::vector<mem::PageId> *unmapped)
    {
        return walk(pl, [this, unmapped](mem::PageId p) {
            auto it = refs_.find(p);
            if (it == refs_.end() || it->second == 0)
                throw std::logic_error("page refcount underflow");
            if (--it->second > 0)
                return false;
            refs_.erase(it);
            unmapped->push_back(p);
            return true;
        });
    }

    /** Live tensors spanning @p page. */
    int
    count(mem::PageId page) const
    {
        auto it = refs_.find(page);
        return it == refs_.end() ? 0 : it->second;
    }

    /** Pages with a nonzero count. */
    std::uint64_t numReferenced() const { return refs_.size(); }

  private:
    /** Apply @p step to each page of @p pl; @return the maximal runs
     *  of pages for which it returned true. */
    template <typename Step>
    static std::vector<mem::PageRun>
    walk(const df::TensorPlacement &pl, Step step)
    {
        std::vector<mem::PageRun> runs;
        for (mem::PageId p = pl.firstPage(); p < pl.endPage(); ++p) {
            if (!step(p))
                continue;
            if (!runs.empty() &&
                runs.back().first + runs.back().count == p)
                ++runs.back().count;
            else
                runs.push_back({ p, 1 });
        }
        return runs;
    }

    std::map<mem::PageId, int> refs_;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_PAGE_REFS_HH
