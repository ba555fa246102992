#include "dataflow/policy.hh"

namespace sentinel::df {

void
MemoryPolicy::onRangeAccess(Executor &ex, mem::PageRun run, bool is_write,
                            std::vector<AccessSegment> &out)
{
    // Per-page adapter: one page per invocation, through the legacy
    // hook.  The executor's range walk then degenerates to the exact
    // page-by-page sequence un-batched policies were written against.
    // Once the base hook has run, nothing listens: it charges nothing
    // and forces no tier, so the whole run is one segment.
    AccessSegment seg;
    seg.pages = run.count;
    if (!page_access_ignored_) {
        PageAccessResult r = onPageAccess(ex, run.first, is_write);
        if (!page_access_ignored_) {
            seg.pages = 1;
            seg.extra = r.extra;
            seg.stall_events = r.extra > 0 ? 1 : 0;
            seg.effective = r.effective;
        }
    }
    out.push_back(seg);
}

void
MemoryPolicy::onRangeUnmapped(Executor &ex, mem::PageRun run)
{
    // Per-page adapter, in page order, until the base hook reports
    // that nothing listens.
    for (mem::PageId p = run.first;
         p < run.endPage() && !page_unmap_ignored_; ++p)
        onPageUnmapped(ex, p);
}

} // namespace sentinel::df
