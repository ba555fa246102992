#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace sentinel::sim {

namespace {

/** Heap comparator: the earliest (when, seq) entry surfaces first. */
struct HeapLater {
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

void
EventQueue::schedule(Tick when, Callback cb)
{
    SENTINEL_ASSERT(when >= 0, "event scheduled at negative tick %lld",
                    static_cast<long long>(when));
    heap_.push_back(Entry{ when, next_seq_++, std::move(cb) });
    std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
}

Tick
EventQueue::nextEventTick() const
{
    return heap_.empty() ? -1 : heap_.front().when;
}

std::size_t
EventQueue::runUntil(Tick until)
{
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().when <= until) {
        // Move out before running: the callback may schedule new
        // events, which mutates the heap.
        Entry e = pop();
        now_ = e.when;
        e.cb(e.when);
        ++n;
    }
    return n;
}

std::size_t
EventQueue::drain()
{
    return runUntil(std::numeric_limits<Tick>::max());
}

void
EventQueue::reset()
{
    heap_.clear();
    next_seq_ = 0;
    now_ = 0;
}

EventQueue::Entry
EventQueue::pop()
{
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
}

} // namespace sentinel::sim
