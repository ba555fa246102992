/**
 * @file
 * Where a tensor lives in the simulated virtual address space.
 *
 * A placement is an address range; the pages it spans are what the OS
 * (and therefore every migration policy) actually manages.  Two
 * tensors whose ranges overlap a page *share* that page — the paper's
 * page-level false sharing arises exactly here.
 *
 * Live tensors may share pages but never bytes.  A page a tensor's own
 * bytes fully cover is therefore the tensor's alone; only its first and
 * last pages can be shared.  The executor relies on this: placing a live
 * tensor over another's interior pages panics.
 */

#ifndef SENTINEL_DATAFLOW_PLACEMENT_HH
#define SENTINEL_DATAFLOW_PLACEMENT_HH

#include <cstdint>

#include "mem/page.hh"

namespace sentinel::df {

/** The address range assigned to one live tensor. */
struct TensorPlacement {
    mem::VirtAddr addr = 0;
    std::uint64_t bytes = 0;

    mem::PageId firstPage() const { return mem::pageOf(addr); }
    mem::PageId endPage() const { return mem::pageCeil(addr + bytes); }
    std::uint64_t numPages() const { return mem::pagesSpanned(addr, bytes); }

    /** All pages this placement touches, as one run. */
    mem::PageRun
    run() const
    {
        return { firstPage(), endPage() - firstPage() };
    }
};

/** A policy's answer to "where should this tensor go?". */
struct AllocDecision {
    /** Start address (policy-chosen layout; may share pages). */
    mem::VirtAddr addr = 0;

    /** Tier newly mapped pages should be backed by. */
    mem::Tier preferred = mem::Tier::Slow;
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_PLACEMENT_HH
