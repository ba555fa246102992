#include "baselines/ial.hh"

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
    std::uint8_t &queued = in_fifo_.ref(page);
    if (!queued) {
        queued = 1;
        fifo_.pushBack(page);
    }
}

void
IalPolicy::onTensorAllocated(df::Executor &ex, df::TensorId,
                             const df::TensorPlacement &pl)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    for (mem::PageId p = pl.firstPage(); p < pl.endPage();) {
        mem::PageRunState rs = hm.residentRange(p, pl.endPage() - p, now);
        if (rs.tier == mem::Tier::Fast)
            for (std::uint64_t i = 0; i < rs.count; ++i)
                noteFastPage(p + i);
        p += rs.count;
    }
}

void
IalPolicy::onTensorFreed(df::Executor &, df::TensorId,
                         const df::TensorPlacement &pl)
{
    arena_.free(pl.addr, pl.bytes);
}

void
IalPolicy::onRangeUnmapped(df::Executor &, mem::PageRun run)
{
    // Lazy removal: dead pages are skipped when popped.
    in_fifo_.clearRange(run);
    slow_touches_.clearRange(run);
}

void
IalPolicy::evictForSpace(df::Executor &ex, std::uint64_t bytes_needed)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();

    victims_.clear(); // coalesced as they are chosen
    std::uint64_t reclaimed = 0;
    while (reclaimed < bytes_needed && !fifo_.empty()) {
        mem::PageId head = fifo_.popFront();
        std::uint8_t &queued = in_fifo_.ref(head);
        if (!queued)
            continue; // page died earlier
        queued = 0;
        if (!hm.isMapped(head))
            continue;
        mem::PageRunState rs = hm.residentRange(head, 1, now);
        if (rs.tier != mem::Tier::Fast || rs.in_flight)
            continue;
        if (!victims_.empty() && victims_.back().endPage() == head)
            ++victims_.back().count;
        else
            victims_.push_back(mem::PageRun{ head, 1 });
        reclaimed += mem::kPageSize;
    }
    // Background demotion: space becomes free when transfers land.
    hm.migratePages(victims_, mem::Tier::Slow, now);
}

void
IalPolicy::onRangeAccess(df::Executor &ex, mem::PageRun run, bool,
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
        if (rs.tier != mem::Tier::Fast && !rs.in_flight) {
            if (covered == 0) {
                hintFault(ex, run.first, out);
                return;
            }
            break;
        }
        covered += rs.count;
    }
    df::AccessSegment seg;
    seg.pages = covered;
    out.push_back(seg);
}

void
IalPolicy::hintFault(df::Executor &ex, mem::PageId page,
                     std::vector<df::AccessSegment> &out)
{
    // Count page heat through NUMA-style hint faults (each sampled
    // access pays the fault).  Every tensor sharing this page heats
    // it — page-level false sharing at work.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    int touches = ++slow_touches_.ref(page);
    df::AccessSegment seg;
    seg.pages = 1;
    seg.extra = kHintFaultCost;
    if (touches >= kPromoteThreshold) {
        if (hm.tier(mem::Tier::Fast).free() < mem::kPageSize)
            evictForSpace(ex, 16 * mem::kPageSize);

        const mem::PageRun one[] = { { page, 1 } };
        if (hm.migratePages(one, mem::Tier::Fast, now) == 1) {
            ++promotions_;
            slow_touches_.ref(page) = 0;
            noteFastPage(page);
            // Fault-driven promotion: the faulting access pays the
            // in-kernel page copy + remap, then proceeds on the fast
            // copy.
            seg.extra += kPromoteServiceCost;
            seg.effective = mem::Tier::Fast;
        }
    }
    seg.stall_events = seg.extra > 0 ? 1 : 0;
    out.push_back(seg);
}

} // namespace sentinel::baselines
