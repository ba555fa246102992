#include "mem/access_tracker.hh"

#include <algorithm>

namespace sentinel::mem {

Tick
AccessTracker::onAccess(PageRun run, bool is_write, std::uint64_t count)
{
    if (count == 0)
        return 0;
    log_.push_back({ run, is_write, count });
    const std::uint64_t faults = run.count * count;
    total_faults_ += faults;
    return kFaultCost * static_cast<Tick>(faults);
}

std::vector<PageRunCounts>
AccessTracker::pageCounts() const
{
    // Each access adds its counts from its run's first page and takes
    // them back at its end; one sweep over the sorted edges yields the
    // counts between consecutive edges.
    struct Edge {
        PageId page;
        std::int64_t reads;
        std::int64_t writes;
    };
    std::vector<Edge> edges;
    edges.reserve(2 * log_.size());
    for (const Access &a : log_) {
        const auto n = static_cast<std::int64_t>(a.count);
        const std::int64_t r = a.is_write ? 0 : n;
        const std::int64_t w = a.is_write ? n : 0;
        edges.push_back({ a.run.first, r, w });
        edges.push_back({ a.run.endPage(), -r, -w });
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) { return a.page < b.page; });

    std::vector<PageRunCounts> out;
    std::int64_t reads = 0;
    std::int64_t writes = 0;
    for (std::size_t i = 0; i < edges.size();) {
        const PageId at = edges[i].page;
        for (; i < edges.size() && edges[i].page == at; ++i) {
            reads += edges[i].reads;
            writes += edges[i].writes;
        }
        if (reads == 0 && writes == 0)
            continue; // a gap; the edges of every open run are still ahead
        out.push_back({ at, edges[i].page - at,
                        static_cast<std::uint64_t>(reads),
                        static_cast<std::uint64_t>(writes) });
    }
    return out;
}

} // namespace sentinel::mem
