#include "mem/page_table.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace sentinel::mem {

PageTable::Pos
PageTable::searchIn(std::uint32_t l, PageId page) const
{
    // Branch-free: the first stretch of leaf l that ends after page.
    const Stretch *base = &slots_[firstOf(l)];
    for (std::uint32_t n = size_[l]; n > 1;) {
        const std::uint32_t half = n / 2;
        base = base[half - 1].end() <= page ? base + half : base;
        n -= half;
    }
    return static_cast<Pos>(base - slots_.data()) + (base->end() <= page);
}

PageTable::Pos
PageTable::search(PageId page) const
{
    if (order_.empty())
        return kNoPos;
    // Branch-free: the last leaf that starts at or before page (the
    // first one if none does).
    std::size_t r = 0;
    for (std::size_t n = order_.size(); n > 1;) {
        const std::size_t half = n / 2;
        r = slots_[firstOf(order_[r + half])].first <= page ? r + half : r;
        n -= half;
    }
    const std::uint32_t l = order_[r];
    if (page >= slots_[lastOf(l)].end())
        return r + 1 < order_.size() ? firstOf(order_[r + 1]) : kNoPos;
    return searchIn(l, page);
}

PageTable::Pos
PageTable::searchFrom(Pos from, PageId page) const
{
    // Edits since moved the stretch: most often within its leaf.
    const std::uint32_t l = leafOfPos(from);
    if (from < num_slots_ && size_[l] > 0 &&
        slots_[firstOf(l)].first <= page && page < slots_[lastOf(l)].end())
        return searchIn(l, page);
    return search(page);
}

PageTable::Pos
PageTable::findSlow(PageId page) const
{
    // A recent position at or next to the page moves to the front;
    // else the page is a new locus and displaces the oldest.
    Pos out = kMiss;
    std::size_t k = 0;
    while (k < kCursors && (out = probe(cursors_[k], page)) == kMiss)
        ++k;
    if (k == kCursors) {
        out = searchFrom(cursors_[0], page);
        k = kCursors - 1;
    }
    for (; k > 0; --k)
        cursors_[k] = cursors_[k - 1];
    cursors_[0] = out;
    return out;
}

void
PageTable::unmapped(PageId page, const char *what)
{
    SENTINEL_PANIC("%s unmapped page %llu", what,
                   static_cast<unsigned long long>(page));
}

PageTable::Pos
PageTable::open(std::uint32_t l, std::uint32_t slot, std::uint32_t m)
{
    if (size_[l] + m > kLeafCap) {
        // Split: the upper half moves to a new leaf after this one.
        const std::uint32_t r = newLeaf(rank_[l] + 1);
        const std::uint32_t half = size_[l] / 2;
        const auto from = slots_.begin() + firstOf(l);
        std::copy(from + half, from + size_[l], slots_.begin() + firstOf(r));
        std::fill(from + half, from + size_[l], Stretch{});
        size_[r] = size_[l] - half;
        size_[l] = half;
        if (slot > half) {
            slot -= half;
            l = r;
        }
    }
    const auto base = slots_.begin() + firstOf(l);
    std::copy_backward(base + slot, base + size_[l], base + size_[l] + m);
    size_[l] += m;
    num_stretches_ += m;
    return firstOf(l) + slot;
}

void
PageTable::erase(Pos p, std::size_t m)
{
    // Leaves the erase empties are dropped as it goes; the first and
    // last it only cuts may want to merge once it is done.
    std::uint32_t cut[2] = { kNoLeaf, kNoLeaf };
    while (m > 0) {
        const std::uint32_t l = leafOfPos(p);
        const std::uint32_t slot = slotOf(p);
        const auto k = static_cast<std::uint32_t>(
            std::min<std::size_t>(m, size_[l] - slot));
        const auto base = slots_.begin() + firstOf(l);
        std::copy(base + slot + k, base + size_[l], base + slot);
        std::fill(base + size_[l] - k, base + size_[l], Stretch{});
        size_[l] -= k;
        num_stretches_ -= k;
        m -= k;
        const Pos after = rank_[l] + 1 < order_.size()
                              ? firstOf(order_[rank_[l] + 1])
                              : kNoPos;
        if (size_[l] == 0)
            dropLeaf(l);
        else
            cut[cut[0] != kNoLeaf] = l;
        p = after;
    }
    for (std::uint32_t l : cut)
        if (l != kNoLeaf && size_[l] <= kLeafCap / 4)
            rebalance(l);
}

void
PageTable::rerank(std::size_t from)
{
    for (std::size_t r = from; r < order_.size(); ++r)
        rank_[order_[r]] = static_cast<std::uint32_t>(r);
}

std::uint32_t
PageTable::newLeaf(std::uint32_t rank)
{
    std::uint32_t id;
    if (free_leaves_.empty()) {
        // kMiss and kNoPos are never slots.
        SENTINEL_ASSERT(num_slots_ < kMiss - kLeafCap,
                        "page table of %u stretch slots is full",
                        num_slots_);
        id = static_cast<std::uint32_t>(size_.size());
        num_slots_ += kLeafCap;
        slots_.resize(num_slots_);
        size_.push_back(0);
        rank_.push_back(kNoLeaf);
        // Neither the index nor the free list allocates below the
        // pool's high-water mark.
        order_.reserve(size_.capacity());
        free_leaves_.reserve(size_.capacity());
    } else {
        id = free_leaves_.back();
        free_leaves_.pop_back();
    }
    order_.insert(order_.begin() + rank, id);
    rerank(rank);
    return id;
}

void
PageTable::dropLeaf(std::uint32_t id)
{
    const std::uint32_t rank = rank_[id];
    rank_[id] = kNoLeaf;
    order_.erase(order_.begin() + rank);
    rerank(rank);
    free_leaves_.push_back(id);
}

void
PageTable::rebalance(std::uint32_t id)
{
    if (rank_[id] == kNoLeaf || size_[id] > kLeafCap / 4)
        return; // merged away by the other end's rebalance, or full enough
    // Append the later of two neighbours to the earlier one.
    auto absorb = [&](std::uint32_t into, std::uint32_t from) {
        const auto src = slots_.begin() + firstOf(from);
        std::copy(src, src + size_[from],
                  slots_.begin() + firstOf(into) + size_[into]);
        std::fill(src, src + size_[from], Stretch{});
        size_[into] += size_[from];
        size_[from] = 0;
        dropLeaf(from);
    };
    const std::uint32_t r = rank_[id];
    if (r + 1 < order_.size() &&
        size_[id] + size_[order_[r + 1]] <= kLeafCap / 2)
        absorb(id, order_[r + 1]);
    else if (r > 0 && size_[order_[r - 1]] + size_[id] <= kLeafCap / 2)
        absorb(order_[r - 1], id);
}

void
PageTable::mapRange(PageId first, std::uint64_t count, Tier tier)
{
    const PageId last = first + count;
    // New pages usually continue the stretch before them, which a
    // recent position holds.
    Pos i = find(first > 0 ? first - 1 : 0);
    if (holds(i, first - 1) && !holds(i, first))
        i = next(i);
    SENTINEL_ASSERT(i == kNoPos || slots_[i].first >= last,
                    "page %llu already mapped",
                    static_cast<unsigned long long>(
                        std::max(first, slots_[i].first)));
    const auto t = static_cast<std::uint8_t>(tierIndex(tier));
    // The new pages merge into the idle stretches of their tier that
    // end where they start and start where they end.
    const bool before = hasPrev(i) && idleEndsAt(slots_[prev(i)], first, t);
    const bool after = i != kNoPos && idleStartsAt(slots_[i], last, t);
    if (before) {
        const Pos h = prev(i);
        slots_[h].count += count + (after ? slots_[i].count : 0);
        cursors_[0] = h;
        if (after)
            erase(i, 1);
    } else if (after) {
        slots_[i].first = first;
        slots_[i].count += count;
    } else {
        Pos o;
        if (order_.empty()) {
            o = open(newLeaf(0), 0, 1);
        } else if (hasPrev(i)) {
            const Pos h = prev(i);
            o = open(leafOfPos(h), slotOf(h) + 1, 1);
        } else {
            o = open(leafOfPos(i), 0, 1);
        }
        slots_[o] = Stretch{ first, count, kNoFlight, t };
        cursors_[0] = o;
    }
    num_mapped_ += count;
}

PageTable::UnmapCounts
PageTable::unmapRange(PageId first, std::uint64_t count)
{
    const PageId last = first + count;
    const Pos i = holding(first, "unmap of");
    UnmapCounts out;
    // The range must be one gapless sequence of stretches [i, j].  An
    // in-flight stretch charges its record once.
    PageId p = first;
    Pos j = i;
    std::size_t len = 1;
    for (;;) {
        const Stretch &s = slots_[j];
        const std::uint64_t n = std::min(s.end(), last) - p;
        out.src[s.tier] += n;
        if (s.flight != kNoFlight) {
            Flight &f = flights_[s.flight];
            out.dest[f.dest] += n;
            f.dropped += n;
            num_inflight_ -= n;
        }
        p += n;
        if (p == last)
            break;
        j = next(j);
        ++len;
        SENTINEL_ASSERT(j != kNoPos && slots_[j].first == p,
                        "unmap of unmapped page %llu",
                        static_cast<unsigned long long>(p));
    }
    // Keep what the first and last stretches hold outside the range.
    const std::uint64_t head = first - slots_[i].first;
    const std::uint64_t tail = slots_[j].end() - last;
    if (len == 1 && head > 0 && tail > 0) {
        // A hole inside one stretch cuts it in two.
        const Stretch s = slots_[i];
        const Pos o = open(leafOfPos(i), slotOf(i) + 1, 1);
        slots_[o - 1].count = head;
        slots_[o] = Stretch{ last, tail, s.flight, s.tier };
    } else {
        if (head > 0)
            slots_[i].count = head;
        if (tail > 0) {
            slots_[j].first = last;
            slots_[j].count = tail;
        }
        const std::size_t gone = len - (head > 0) - (tail > 0);
        if (gone > 0)
            erase(head > 0 ? next(i) : i, gone);
    }
    num_mapped_ -= count;
    return out;
}

bool
PageTable::isMapped(PageId page) const
{
    return holds(find(page), page);
}

PageEntry
PageTable::entry(PageId page) const
{
    const Stretch &s = slots_[holding(page, "entry() of")];
    PageEntry e;
    e.tier = makeTier(s.tier);
    e.in_flight = s.flight != kNoFlight;
    e.dest = e.tier;
    if (e.in_flight) {
        const Flight &f = flights_[s.flight];
        e.dest = makeTier(f.dest);
        e.arrival = f.a0 + static_cast<Tick>(page - f.first) * f.step;
    }
    return e;
}

PageRunState
PageTable::runState(PageId first, std::uint64_t count) const
{
    SENTINEL_ASSERT(count > 0, "runState() of empty range");
    Pos i = holding(first, "runState() over");
    const Stretch &s0 = slots_[i];
    const PageId last = first + count;
    const bool in_flight = s0.flight != kNoFlight;
    // Idle stretches of one tier are merged, so only in-flight runs of
    // one source tier (several records) can continue past the first.
    PageId end = s0.end();
    while (end < last && (i = next(i)) != kNoPos) {
        const Stretch &s = slots_[i];
        SENTINEL_ASSERT(s.first == end, "runState() over unmapped page %llu",
                        static_cast<unsigned long long>(end));
        if (s.tier != s0.tier || (s.flight != kNoFlight) != in_flight)
            break;
        end = s.end();
    }
    SENTINEL_ASSERT(end >= last || i != kNoPos,
                    "runState() over unmapped page %llu",
                    static_cast<unsigned long long>(end));
    return PageRunState{ makeTier(s0.tier), in_flight,
                         std::min(end, last) - first };
}

PageTable::FlightId
PageTable::beginMigrationRun(PageId first, std::uint64_t count, Tier dest,
                             Tick arrival0, Tick step, FlightId after)
{
    SENTINEL_ASSERT(count > 0, "empty migration run");
    const PageId last = first + count;
    const Pos i = holding(first, "access to");
    const Stretch s0 = slots_[i];
    SENTINEL_ASSERT(s0.flight == kNoFlight, "page %llu is already migrating",
                    static_cast<unsigned long long>(first));
    SENTINEL_ASSERT(makeTier(s0.tier) != dest, "migration to the same tier");
    // An idle run of one tier lies inside one stretch.
    SENTINEL_ASSERT(s0.end() >= last,
                    "migration run at %llu is not one idle tier",
                    static_cast<unsigned long long>(first));
    const std::uint8_t src = s0.tier;

    FlightId id;
    if (free_.empty()) {
        SENTINEL_ASSERT(flights_.size() < kNoFlight,
                        "too many migration runs in flight");
        id = static_cast<FlightId>(flights_.size());
        flights_.emplace_back();
        // Retiring never allocates: the free list can hold every id.
        free_.reserve(flights_.capacity());
    } else {
        id = free_.back();
        free_.pop_back();
    }
    flights_[id] = Flight{ first, count, arrival0, step, 0, 0, src,
                           static_cast<std::uint8_t>(tierIndex(dest)),
                           kNoFlight, kNoPos };
    if (after != kNoFlight)
        flights_[after].next = id;

    // Cut the idle stretch into its head, the run and its tail; none
    // of them can join a neighbour.
    const bool head = first > s0.first;
    const bool tail = last < s0.end();
    Pos r = i;
    if (head || tail) {
        const Pos o = open(leafOfPos(i), slotOf(i) + 1, head + tail);
        r = head ? o : o - 1;
        if (head)
            slots_[o - 1].count = first - s0.first;
        if (tail)
            slots_[r + 1] = Stretch{ last, s0.end() - last, kNoFlight, src };
    }
    slots_[r] = Stretch{ first, count, id, src };
    flights_[id].at = r;
    cursors_[0] = r;
    num_inflight_ += count;
    return id;
}

void
PageTable::land(Pos i, PageId upto, std::uint8_t dest)
{
    const Stretch s = slots_[i];
    const bool before = hasPrev(i) && idleEndsAt(slots_[prev(i)], s.first, dest);
    if (upto < s.end()) {
        // The pages before upto land; the rest stays in flight.
        if (before) {
            // A drain's usual piece: the boundary between the landed
            // stretch before and the run moves, nothing shifts.
            slots_[prev(i)].count += upto - s.first;
            slots_[i].first = upto;
            slots_[i].count = s.end() - upto;
            flights_[s.flight].at = i;
            return;
        }
        const Pos o = open(leafOfPos(i), slotOf(i) + 1, 1);
        slots_[o - 1] = Stretch{ s.first, upto - s.first, kNoFlight, dest };
        slots_[o] = Stretch{ upto, s.end() - upto, s.flight, s.tier };
        flights_[s.flight].at = o;
        return;
    }
    // The whole stretch lands and merges into its idle neighbours of
    // the destination tier.
    const Pos nx = next(i);
    const bool after = nx != kNoPos && idleStartsAt(slots_[nx], upto, dest);
    if (before) {
        slots_[prev(i)].count += s.count + (after ? slots_[nx].count : 0);
        erase(i, 1 + after);
    } else if (after) {
        slots_[nx].first = s.first;
        slots_[nx].count += s.count;
        erase(i, 1);
    } else {
        slots_[i].flight = kNoFlight;
        slots_[i].tier = dest;
    }
}

std::uint64_t
PageTable::commitMigrationRun(FlightId id, std::uint64_t n)
{
    if (n == 0)
        return 0;
    Flight &f = flights_[id];
    SENTINEL_ASSERT(n <= f.count - f.cursor,
                    "commit of %llu pages past the end of a run",
                    static_cast<unsigned long long>(n));
    const PageId first = f.first + f.cursor;
    const PageId last = first + n;
    std::uint64_t done = 0;
    if (f.dropped == 0) {
        // The rest of the run is still one stretch of this record, at
        // or next to where it was put unless edits moved it since: flip
        // its first n pages.
        Pos i = probe(f.at, first);
        if (i == kMiss)
            i = searchFrom(f.at, first);
        SENTINEL_ASSERT(i != kNoPos && slots_[i].first == first &&
                            slots_[i].flight == id &&
                            slots_[i].end() == f.first + f.count,
                        "run at %llu lost its flight",
                        static_cast<unsigned long long>(first));
        land(i, last, f.dest);
        done = n;
    } else {
        // Some pages were freed: flip the stretches of [first, last)
        // still tagged with this record, one at a time.
        for (Pos i = search(first); i != kNoPos && slots_[i].first < last;) {
            const Stretch &s = slots_[i];
            if (s.flight != id) {
                i = next(i); // freed, or remapped and superseded
                continue;
            }
            const PageId upto = std::min(s.end(), last);
            done += upto - s.first;
            land(i, upto, f.dest);
            i = search(upto);
        }
    }
    num_inflight_ -= done;
    f.dropped -= n - done;
    f.cursor += n;
    if (f.cursor == f.count)
        free_.push_back(id);
    return done;
}

void
PageTable::clear()
{
    num_mapped_ = 0;
    num_inflight_ = 0;
    // Every page is gone, so is every flight; the pools keep their
    // capacity, and every leaf is free and empty.
    for (std::uint32_t l : order_) {
        std::fill_n(slots_.begin() + firstOf(l), size_[l], Stretch{});
        size_[l] = 0;
        rank_[l] = kNoLeaf;
        free_leaves_.push_back(l);
    }
    order_.clear();
    num_stretches_ = 0;
    std::fill(cursors_, cursors_ + kCursors, kNoPos);
    flights_.clear();
    free_.clear();
}

} // namespace sentinel::mem
