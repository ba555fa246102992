/**
 * @file
 * A minimal discrete-event queue.
 *
 * The training-step executor advances simulated time itself (operations
 * are serialized within a layer), but asynchronous machinery — the
 * migration engine's completion callbacks and periodic statistics
 * sampling — runs through this queue.  Events scheduled at the same tick
 * fire in insertion order (FIFO), which keeps runs deterministic.
 *
 * The FIFO guarantee is load-bearing for multi-tenant simulation: when
 * two jobs on the server's shared node clock schedule events at the
 * SAME tick (two arrivals, a step end colliding with an arbiter poll),
 * execution order is exactly schedule order — a stable sequence number
 * breaks the tie, never container internals (tests/sim/test_event_queue.cc
 * pins the interleaving down).
 *
 * Storage is a binary min-heap on (when, seq) over a plain vector, so
 * reset() keeps its capacity.  The queue's one user, the server's
 * replay, keeps a handful of events pending at a time.
 */

#ifndef SENTINEL_SIM_EVENT_QUEUE_HH
#define SENTINEL_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hh"

namespace sentinel::sim {

/** Priority queue of (tick, callback) pairs with FIFO tie-breaking. */
class EventQueue
{
  public:
    using Callback = std::function<void(Tick)>;

    /** Schedule @p cb to fire at absolute time @p when. */
    void schedule(Tick when, Callback cb);

    /** @return the time of the earliest pending event, or -1 if empty. */
    Tick nextEventTick() const;

    /**
     * Run every event with tick <= @p until (events may schedule further
     * events; those are honored if they also fall within the horizon).
     *
     * @return the number of events executed.
     */
    std::size_t runUntil(Tick until);

    /** Run everything that is pending, regardless of tick. */
    std::size_t drain();

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Time of the last executed event (0 before any run). */
    Tick now() const { return now_; }

    /**
     * Discard all pending events and rewind the clock and sequence
     * counter — a fresh queue for the next simulation on the same
     * object (the server reuses one queue across runs).  Storage is
     * retained for reuse.
     */
    void reset();

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Pop the earliest (when, seq) entry. */
    Entry pop();

    // std::push_heap/pop_heap rather than std::priority_queue, which
    // hides its container (reset() keeps the capacity).
    std::vector<Entry> heap_;
    std::uint64_t next_seq_ = 0;
    Tick now_ = 0;
};

} // namespace sentinel::sim

#endif // SENTINEL_SIM_EVENT_QUEUE_HH
