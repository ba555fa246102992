#include "baselines/unified_memory.hh"

#include <vector>

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
UnifiedMemoryPolicy::touchLru(mem::PageId page)
{
    auto it = lru_pos_.find(page);
    if (it != lru_pos_.end()) {
        lru_.splice(lru_.end(), lru_, it->second);
        return;
    }
    lru_.push_back(page);
    lru_pos_[page] = std::prev(lru_.end());
}

void
UnifiedMemoryPolicy::onTensorAllocated(df::Executor &ex, df::TensorId,
                                       const df::TensorPlacement &pl)
{
    Tick now = ex.now();
    for (mem::PageId p = pl.firstPage(); p < pl.endPage(); ++p)
        if (ex.hm().residentTier(p, now) == mem::Tier::Fast)
            touchLru(p);
}

void
UnifiedMemoryPolicy::onTensorFreed(df::Executor &, df::TensorId,
                                   const df::TensorPlacement &pl)
{
    arena_.free(pl.addr, pl.bytes);
}

void
UnifiedMemoryPolicy::onPageUnmapped(df::Executor &, mem::PageId page)
{
    auto it = lru_pos_.find(page);
    if (it != lru_pos_.end()) {
        lru_.erase(it->second);
        lru_pos_.erase(it);
    }
}

void
UnifiedMemoryPolicy::evictLru(df::Executor &ex,
                              std::uint64_t bytes_needed)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::vector<mem::PageRun> victims; // coalesced as they are chosen
    std::uint64_t reclaimed = 0;
    while (reclaimed < bytes_needed && !lru_.empty()) {
        mem::PageId victim = lru_.front();
        lru_.pop_front();
        lru_pos_.erase(victim);
        if (!hm.isMapped(victim) ||
            hm.residentTier(victim, now) != mem::Tier::Fast ||
            hm.inFlight(victim, now))
            continue;
        if (!victims.empty() && victims.back().endPage() == victim)
            ++victims.back().count;
        else
            victims.push_back(mem::PageRun{ victim, 1 });
        reclaimed += mem::kPageSize;
    }
    // cudaMemPrefetchAsync back to the host: the far end of the chain.
    hm.migratePages(victims, hm.slowestTier(), now);
}

void
UnifiedMemoryPolicy::onRangeAccess(df::Executor &ex, mem::PageRun run,
                                   bool is_write,
                                   std::vector<df::AccessSegment> &out)
{
    // Device-resident prefix: LRU touches only, no fault.  The LRU
    // update order matches the per-page loop exactly.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::uint64_t covered = 0;
    while (covered < run.count) {
        mem::PageRunState rs = hm.residentRange(run.first + covered,
                                                run.count - covered, now);
        if (rs.tier != mem::Tier::Fast)
            break;
        for (std::uint64_t i = 0; i < rs.count; ++i)
            touchLru(run.first + covered + i);
        covered += rs.count;
    }
    if (covered > 0) {
        df::AccessSegment seg;
        seg.pages = covered;
        seg.effective = mem::Tier::Fast;
        out.push_back(seg);
        return;
    }
    // Host-resident head: the demand-fault path migrates and charges
    // per page — defer to the exact per-page adapter.
    df::MemoryPolicy::onRangeAccess(ex, run, is_write, out);
}

df::PageAccessResult
UnifiedMemoryPolicy::onPageAccess(df::Executor &ex, mem::PageId page,
                                  bool)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    if (hm.residentTier(page, now) == mem::Tier::Fast) {
        touchLru(page);
        return {};
    }

    // Demand fault: service + migration fully exposed.
    ++faults_;
    df::PageAccessResult out;
    out.extra = fault_cost_;

    if (hm.inFlight(page, now)) {
        // Eviction in flight; the fault must wait for it, then the
        // page comes back.
        out.extra += hm.arrivalTime(page) - now;
        out.effective = hm.slowestTier();
        return out;
    }

    if (hm.tier(mem::Tier::Fast).free() < mem::kPageSize)
        evictLru(ex, 32 * mem::kPageSize);

    const mem::PageRun one[] = { { page, 1 } };
    if (hm.migratePages(one, mem::Tier::Fast, now) == 1) {
        out.extra += hm.arrivalTime(page) - now;
        out.effective = mem::Tier::Fast;
        touchLru(page);
    } else {
        // Device still full (evictions in flight): the fault is
        // retried against the page's current host-side mapping.
        out.effective = hm.residentTier(page, now);
    }
    return out;
}

} // namespace sentinel::baselines
