#include "mem/page_table.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace sentinel::mem {

namespace {

/** Iterator to element @p i of @p v. */
template <class T>
typename std::vector<T>::iterator
nth(std::vector<T> &v, std::size_t i)
{
    return v.begin() + static_cast<std::ptrdiff_t>(i);
}

} // namespace

std::size_t
PageTable::find(PageId page) const
{
    // The first stretch that ends after @p page follows every one that
    // does not.  Most lookups land on or next to the previous one's
    // stretch, so try that before the binary search.
    const std::size_t size = stretches_.size();
    auto answers = [&](std::size_t i) {
        return i <= size && (i == size || stretches_[i].end() > page) &&
               (i == 0 || stretches_[i - 1].end() <= page);
    };
    if (answers(hint_))
        return hint_;
    if (answers(hint_ + 1))
        return ++hint_;
    if (size == 0 || page < stretches_[0].first)
        return hint_ = 0;
    // Branch-free: the last stretch that starts at or before page.
    const Stretch *base = stretches_.data();
    for (std::size_t n = size; n > 1;) {
        const std::size_t half = n / 2;
        base = base[half].first <= page ? base + half : base;
        n -= half;
    }
    hint_ = static_cast<std::size_t>(base - stretches_.data()) +
            (base->end() <= page);
    return hint_;
}

std::size_t
PageTable::at(PageId page, const char *what) const
{
    const std::size_t i = find(page);
    SENTINEL_ASSERT(i < stretches_.size() && stretches_[i].first <= page,
                    "%s unmapped page %llu", what,
                    static_cast<unsigned long long>(page));
    return i;
}

bool
PageTable::joins(const Stretch &a, const Stretch &b)
{
    return a.end() == b.first && a.tier == b.tier && a.flight == b.flight;
}

PageTable::Stretch
PageTable::stretchOr0(std::size_t i) const
{
    return i < stretches_.size() ? stretches_[i] : Stretch{};
}

void
PageTable::splice(std::size_t a, std::size_t b,
                  std::initializer_list<Stretch> with)
{
    SENTINEL_ASSERT(with.size() <= 4, "splice of %zu stretches", with.size());
    Stretch out[4];
    std::size_t n = 0;
    for (const Stretch &s : with) {
        if (s.count == 0)
            continue;
        if (n > 0 && joins(out[n - 1], s))
            out[n - 1].count += s.count;
        else
            out[n++] = s;
    }
    hint_ = a;
    const std::size_t kept = std::min(n, b - a);
    std::copy_n(out, kept, nth(stretches_, a));
    if (n > kept)
        stretches_.insert(nth(stretches_, b), out + kept, out + n);
    else if (b - a > kept)
        stretches_.erase(nth(stretches_, a + kept), nth(stretches_, b));
}

void
PageTable::coalesce(std::size_t a, std::size_t b)
{
    std::size_t w = a;
    for (std::size_t r = a + 1; r < b; ++r) {
        if (joins(stretches_[w], stretches_[r]))
            stretches_[w].count += stretches_[r].count;
        else
            stretches_[++w] = stretches_[r];
    }
    if (w + 1 < b)
        stretches_.erase(nth(stretches_, w + 1), nth(stretches_, b));
}

void
PageTable::mapRange(PageId first, std::uint64_t count, Tier tier)
{
    const std::size_t i = find(first);
    SENTINEL_ASSERT(i == stretches_.size() ||
                        stretches_[i].first >= first + count,
                    "page %llu already mapped",
                    static_cast<unsigned long long>(
                        std::max(first, stretches_[i].first)));
    const auto t = static_cast<std::uint8_t>(tierIndex(tier));
    splice(i - (i > 0), i + (i < stretches_.size()),
           { stretchOr0(i - 1), Stretch{ first, count, kNoFlight, t },
             stretchOr0(i) });
    num_mapped_ += count;
}

PageTable::UnmapCounts
PageTable::unmapRange(PageId first, std::uint64_t count)
{
    const PageId last = first + count;
    const std::size_t i = at(first, "unmap of");
    UnmapCounts out;
    // The range must be one gapless sequence of stretches.  An
    // in-flight stretch charges its record once.
    PageId p = first;
    std::size_t j = i;
    for (; p < last; ++j) {
        SENTINEL_ASSERT(j < stretches_.size() && stretches_[j].first <= p,
                        "unmap of unmapped page %llu",
                        static_cast<unsigned long long>(p));
        const Stretch &s = stretches_[j];
        const std::uint64_t n = std::min(s.end(), last) - p;
        out.src[s.tier] += n;
        if (s.flight != kNoFlight) {
            Flight &f = flights_[s.flight];
            out.dest[f.dest] += n;
            f.dropped += n;
            num_inflight_ -= n;
        }
        p += n;
    }
    // Keep what the first and last stretches hold outside the range.
    Stretch head = stretches_[i];
    head.count = first - head.first;
    Stretch tail = stretches_[j - 1];
    tail.count = tail.end() - last;
    tail.first = last;
    splice(i, j, { head, tail });
    num_mapped_ -= count;
    return out;
}

bool
PageTable::isMapped(PageId page) const
{
    const std::size_t i = find(page);
    return i < stretches_.size() && stretches_[i].first <= page;
}

PageEntry
PageTable::entry(PageId page) const
{
    const Stretch &s = stretches_[at(page, "entry() of")];
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
    std::size_t i = at(first, "runState() over");
    const Stretch &s0 = stretches_[i];
    const PageId last = first + count;
    const bool in_flight = s0.flight != kNoFlight;
    // Idle stretches of one tier are merged, so only in-flight runs of
    // one source tier (several records) can continue past the first.
    PageId end = s0.end();
    while (end < last && ++i < stretches_.size()) {
        const Stretch &s = stretches_[i];
        SENTINEL_ASSERT(s.first == end, "runState() over unmapped page %llu",
                        static_cast<unsigned long long>(end));
        if (s.tier != s0.tier || (s.flight != kNoFlight) != in_flight)
            break;
        end = s.end();
    }
    SENTINEL_ASSERT(end >= last || i < stretches_.size(),
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
    const std::size_t i = at(first, "access to");
    const Stretch s0 = stretches_[i];
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
                           kNoFlight };
    if (after != kNoFlight)
        flights_[after].next = id;

    // Cut the idle stretch into its head, the run and its tail; none
    // of them can join a neighbour.
    Stretch cut[3];
    std::size_t n = 0;
    if (first > s0.first)
        cut[n++] = Stretch{ s0.first, first - s0.first, kNoFlight, src };
    cut[n++] = Stretch{ first, count, id, src };
    if (last < s0.end())
        cut[n++] = Stretch{ last, s0.end() - last, kNoFlight, src };
    stretches_[i] = cut[0];
    stretches_.insert(nth(stretches_, i + 1), cut + 1, cut + n);
    num_inflight_ += count;
    return id;
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
    const std::size_t i = find(first);
    std::uint64_t done = 0;
    if (f.dropped == 0) {
        // The rest of the run is still one stretch of this record: flip
        // its first n pages.
        const Stretch run = stretchOr0(i);
        SENTINEL_ASSERT(run.first == first && run.flight == id &&
                            run.end() == f.first + f.count,
                        "run at %llu lost its flight",
                        static_cast<unsigned long long>(first));
        const Stretch landed{ first, n, kNoFlight, f.dest };
        if (n < run.count && i > 0 && joins(stretches_[i - 1], landed)) {
            // A drain's usual piece: the boundary between the landed
            // stretch before and the run moves, nothing shifts.
            stretches_[i - 1].count += n;
            stretches_[i].first = last;
            stretches_[i].count -= n;
        } else {
            const std::size_t b = i + 1 + (i + 1 < stretches_.size());
            splice(i - (i > 0), b,
                   { stretchOr0(i - 1), landed,
                     Stretch{ last, run.count - n, id, run.tier },
                     stretchOr0(i + 1) });
        }
        done = n;
    } else {
        // Some pages were freed: flip the stretches of [first, last)
        // still tagged with this record, cutting the one that may
        // straddle the end, then merge what now joins.
        const std::size_t j = find(last);
        const Stretch cut = stretchOr0(j);
        if (cut.flight == id && cut.first < last) {
            stretches_[j].count = last - cut.first;
            stretches_.insert(nth(stretches_, j + 1),
                              Stretch{ last, cut.end() - last, id, cut.tier });
        }
        std::size_t k = i;
        for (; k < stretches_.size() && stretches_[k].first < last; ++k) {
            Stretch &s = stretches_[k];
            if (s.flight != id)
                continue; // freed, or remapped and superseded
            s.flight = kNoFlight;
            s.tier = f.dest;
            done += s.count;
        }
        coalesce(i - (i > 0), std::min(k + 1, stretches_.size()));
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
    // Every page is gone, so is every flight; the pool and the stretch
    // vector keep their capacity.
    stretches_.clear();
    flights_.clear();
    free_.clear();
}

} // namespace sentinel::mem
