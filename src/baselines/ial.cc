#include "baselines/ial.hh"

#include <vector>

namespace sentinel::baselines {

df::AllocDecision
IalPolicy::allocate(df::Executor &ex, const df::TensorDesc &tensor)
{
    // First-touch placement prefers fast memory; make room FIFO-style
    // if it is full (the kernel reclaims from the active list's tail).
    std::uint64_t need = mem::roundUpToPages(tensor.bytes);
    if (ex.hm().tier(mem::Tier::Fast).free() < need)
        evictForSpace(ex, need);
    return { arena_.allocate(tensor.bytes, 64), mem::Tier::Fast };
}

void
IalPolicy::noteFastPage(mem::PageId page)
{
    if (in_fifo_.insert(page).second)
        fifo_.push_back(page);
}

void
IalPolicy::onTensorAllocated(df::Executor &ex, df::TensorId,
                             const df::TensorPlacement &pl)
{
    Tick now = ex.now();
    for (mem::PageId p = pl.firstPage(); p < pl.endPage(); ++p) {
        if (ex.hm().residentTier(p, now) == mem::Tier::Fast)
            noteFastPage(p);
    }
}

void
IalPolicy::onTensorFreed(df::Executor &, df::TensorId,
                         const df::TensorPlacement &pl)
{
    arena_.free(pl.addr, pl.bytes);
}

void
IalPolicy::onPageUnmapped(df::Executor &, mem::PageId page)
{
    // Lazy removal: dead pages are skipped when popped.
    in_fifo_.erase(page);
    slow_touches_.erase(page);
}

void
IalPolicy::evictForSpace(df::Executor &ex, std::uint64_t bytes_needed)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();

    std::vector<mem::PageRun> victims; // coalesced as they are chosen
    std::uint64_t reclaimed = 0;
    while (reclaimed < bytes_needed && !fifo_.empty()) {
        mem::PageId head = fifo_.front();
        fifo_.pop_front();
        if (in_fifo_.erase(head) == 0)
            continue; // page died earlier
        if (!hm.isMapped(head) ||
            hm.residentTier(head, now) != mem::Tier::Fast ||
            hm.inFlight(head, now))
            continue;
        if (!victims.empty() && victims.back().endPage() == head)
            ++victims.back().count;
        else
            victims.push_back(mem::PageRun{ head, 1 });
        reclaimed += mem::kPageSize;
    }
    // Background demotion: space becomes free when transfers land.
    hm.migratePages(victims, mem::Tier::Slow, now);
}

void
IalPolicy::onRangeAccess(df::Executor &ex, mem::PageRun run, bool is_write,
                         std::vector<df::AccessSegment> &out)
{
    // IAL only acts on pages sitting idle in slow memory.  Pages that
    // are fast-resident or already migrating take no action (and no
    // hint-fault cost), so a leading run of them is one free segment.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::uint64_t covered = 0;
    while (covered < run.count) {
        mem::PageRunState rs = hm.residentRange(run.first + covered,
                                                run.count - covered, now);
        if (rs.tier != mem::Tier::Fast && !rs.in_flight)
            break;
        covered += rs.count;
    }
    if (covered > 0) {
        df::AccessSegment seg;
        seg.pages = covered;
        out.push_back(seg);
        return;
    }
    // Slow-resident head: hint-fault accounting mutates per-page heat
    // and may migrate — take the exact per-page path for one page.
    df::MemoryPolicy::onRangeAccess(ex, run, is_write, out);
}

df::PageAccessResult
IalPolicy::onPageAccess(df::Executor &ex, mem::PageId page, bool)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    if (hm.residentTier(page, now) == mem::Tier::Fast ||
        hm.inFlight(page, now))
        return {};

    // Count page heat through NUMA-style hint faults (each sampled
    // access pays the fault).  Every tensor sharing this page heats
    // it — page-level false sharing at work.
    int touches = ++slow_touches_[page];
    df::PageAccessResult out;
    out.extra = hint_fault_cost_;
    if (touches < threshold_)
        return out;

    if (hm.tier(mem::Tier::Fast).free() < mem::kPageSize)
        evictForSpace(ex, 16 * mem::kPageSize);

    const mem::PageRun one[] = { { page, 1 } };
    if (hm.migratePages(one, mem::Tier::Fast, now) == 1) {
        ++promotions_;
        slow_touches_.erase(page);
        noteFastPage(page);
        // Fault-driven promotion: the faulting access pays the
        // in-kernel page copy + remap, then proceeds on the fast copy.
        out.extra += promote_service_;
        out.effective = mem::Tier::Fast;
    }
    return out;
}

} // namespace sentinel::baselines
