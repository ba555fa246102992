#include "baselines/unified_memory.hh"

#include <algorithm>

namespace sentinel::baselines {

df::AllocDecision
UnifiedMemoryPolicy::allocate(df::Executor &ex,
                              const df::TensorDesc &tensor)
{
    // cudaMallocManaged: first GPU touch places the page on the
    // device if space permits.
    std::uint64_t need = mem::roundUpToPages(tensor.bytes);
    if (ex.hm().tier(mem::Tier::Fast).free() < need)
        evictLru(ex, need);
    return { arena_.allocate(tensor.bytes, 64), mem::Tier::Fast };
}

void
UnifiedMemoryPolicy::onTensorAllocated(df::Executor &ex, df::TensorId,
                                       const df::TensorPlacement &pl)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    for (mem::PageId p = pl.firstPage(); p < pl.endPage();) {
        mem::PageRunState rs = hm.residentRange(p, pl.endPage() - p, now);
        if (rs.tier == mem::Tier::Fast)
            lru_.touch({ p, rs.count });
        p += rs.count;
    }
}

void
UnifiedMemoryPolicy::onTensorFreed(df::Executor &, df::TensorId,
                                   const df::TensorPlacement &pl)
{
    arena_.free(pl.addr, pl.bytes);
}

void
UnifiedMemoryPolicy::onRangeUnmapped(df::Executor &, mem::PageRun run)
{
    lru_.eraseRange(run);
}

void
UnifiedMemoryPolicy::onPageUnmapped(df::Executor &, mem::PageId page)
{
    lru_.erase(page);
}

void
UnifiedMemoryPolicy::evictLru(df::Executor &ex,
                              std::uint64_t bytes_needed)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    victims_.clear(); // coalesced as they are chosen
    std::uint64_t wanted = mem::pageCeil(bytes_needed);
    while (wanted > 0 && !lru_.empty()) {
        // One residency read per LRU run: its leading pages that are
        // host-side or already moving are dropped from the LRU all the
        // same, and idle device pages are taken up to the need.
        const mem::PageRun run = lru_.front(wanted);
        SENTINEL_ASSERT(hm.isMapped(run.first),
                        "LRU page %llu is not mapped",
                        static_cast<unsigned long long>(run.first));
        const mem::PageRunState rs =
            hm.residentRange(run.first, run.count, now);
        lru_.popFront(rs.count);
        if (rs.tier != mem::Tier::Fast || rs.in_flight)
            continue;
        if (!victims_.empty() && victims_.back().endPage() == run.first)
            victims_.back().count += rs.count;
        else
            victims_.push_back(mem::PageRun{ run.first, rs.count });
        wanted -= rs.count;
    }
    // cudaMemPrefetchAsync back to the host: the far end of the chain.
    hm.migratePages(victims_, hm.slowestTier(), now);
}

void
UnifiedMemoryPolicy::onRangeAccess(df::Executor &ex, mem::PageRun run,
                                   bool, std::vector<df::AccessSegment> &out)
{
    // Device-resident prefix: LRU touches only, no fault.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::uint64_t covered = 0;
    while (covered < run.count) {
        mem::PageRunState rs = hm.residentRange(run.first + covered,
                                                run.count - covered, now);
        if (rs.tier != mem::Tier::Fast) {
            if (covered == 0) {
                demandFault(ex, run.first, rs, out);
                return;
            }
            break;
        }
        lru_.touch({ run.first + covered, rs.count });
        covered += rs.count;
    }
    df::AccessSegment seg;
    seg.pages = covered;
    seg.effective = mem::Tier::Fast;
    out.push_back(seg);
}

void
UnifiedMemoryPolicy::demandFault(df::Executor &ex, mem::PageId page,
                                 const mem::PageRunState &rs,
                                 std::vector<df::AccessSegment> &out)
{
    // Service + migration fully exposed, one page per fault.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    df::AccessSegment seg;
    seg.pages = 1;
    seg.extra = kFaultCost;

    if (rs.in_flight) {
        // Eviction in flight; the fault must wait for it, then the
        // page comes back.
        seg.extra += hm.flightInfo(page).arrival - now;
        seg.effective = hm.slowestTier();
    } else {
        if (hm.tier(mem::Tier::Fast).free() < mem::kPageSize)
            evictLru(ex, 32 * mem::kPageSize);

        // The faults that fit on the device now form one series: each
        // is serviced once its page lands, and the next page faults
        // right after.  Evictions in flight only free space meanwhile,
        // so page by page every one of them would have fit too.
        const std::uint64_t k = std::min<std::uint64_t>(
            rs.count, hm.tier(mem::Tier::Fast).free() / mem::kPageSize);
        if (k > 0) {
            const sim::TransferSeries a =
                hm.faultSeries(page, k, mem::Tier::Fast, now, kFaultCost);
            lru_.touch({ page, k });
            faults_ += k;
            seg.pages = k;
            seg.extra = a.last() + kFaultCost - now;
            seg.stall_events = k;
            seg.effective = mem::Tier::Fast;
            out.push_back(seg);
            return;
        }
        // Device still full (evictions in flight): the fault is
        // retried against the page's host-side mapping, which evicting
        // device pages left as it was.
        seg.effective = rs.tier;
    }
    ++faults_;
    seg.stall_events = seg.extra > 0 ? 1 : 0;
    out.push_back(seg);
}

} // namespace sentinel::baselines
