#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace sentinel::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(q.drain(), 3u);
    EXPECT_EQ(order, (std::vector<int>{ 1, 2, 3 }));
}

TEST(EventQueue, SameTickIsFifo)
{
    // A collision storm: every event on one tick, so only the
    // schedule-order tie-break decides the order.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 2000; ++i)
        q.schedule(100, [&order, i](Tick) { order.push_back(i); });
    EXPECT_EQ(q.drain(), 2000u);
    ASSERT_EQ(order.size(), 2000u);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilHonorsHorizon)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&](Tick) { ++fired; });
    q.schedule(10, [&](Tick) { ++fired; });
    q.schedule(11, [&](Tick) { ++fired; });
    EXPECT_EQ(q.runUntil(10), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextEventTick(), 11);
}

TEST(EventQueue, CallbackCanScheduleWithinHorizon)
{
    EventQueue q;
    std::vector<Tick> fired_at;
    q.schedule(10, [&](Tick t) {
        fired_at.push_back(t);
        q.schedule(t + 5, [&](Tick t2) { fired_at.push_back(t2); });
    });
    q.runUntil(20);
    EXPECT_EQ(fired_at, (std::vector<Tick>{ 10, 15 }));
}

TEST(EventQueue, NowTracksLastEvent)
{
    EventQueue q;
    q.schedule(42, [](Tick) {});
    EXPECT_EQ(q.now(), 0);
    q.drain();
    EXPECT_EQ(q.now(), 42);
}

TEST(EventQueue, EmptyQueueProperties)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), -1);
    EXPECT_EQ(q.runUntil(1000), 0u);
}

TEST(EventQueue, NegativeTickPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(-1, [](Tick) {}), std::logic_error);
}

// Regression for the multi-job server: two jobs advancing step-locked
// on one node clock keep colliding at the same ticks (equal arrivals,
// step ends landing on arbiter polls).  The interleaving must be
// schedule order — stable across events that themselves schedule more
// same-tick events — or a co-located run would not be reproducible.
TEST(EventQueue, TwoJobsCollidingTimestampsInterleaveStably)
{
    EventQueue q;
    std::vector<std::string> order;
    const Tick step = 100;
    // Job A and job B schedule their per-step events in alternating
    // submit order; every step of both jobs lands on the same tick.
    for (int s = 0; s < 3; ++s) {
        Tick t = (s + 1) * step;
        q.schedule(t, [&order, s, &q, t](Tick) {
            order.push_back("A" + std::to_string(s));
            // A's handler chains a same-tick follow-up (the server's
            // poll re-arm); it must run after B's already-queued
            // event, not before.
            q.schedule(t, [&order, s](Tick) {
                order.push_back("a" + std::to_string(s));
            });
        });
        q.schedule(t, [&order, s](Tick) {
            order.push_back("B" + std::to_string(s));
        });
    }
    q.drain();
    EXPECT_EQ(order, (std::vector<std::string>{ "A0", "B0", "a0", "A1",
                                                "B1", "a1", "A2", "B2",
                                                "a2" }));
}

TEST(EventQueue, ResetYieldsFreshQueue)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&](Tick) { ++fired; });
    q.schedule(20, [&](Tick) { ++fired; });
    q.runUntil(10);
    EXPECT_EQ(q.now(), 10);
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.nextEventTick(), -1);
    // FIFO ordering restarts from a clean sequence counter.
    std::vector<int> order;
    q.schedule(5, [&](Tick) { order.push_back(1); });
    q.schedule(5, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(q.drain(), 2u);
    EXPECT_EQ(order, (std::vector<int>{ 1, 2 }));
    EXPECT_EQ(fired, 1);
}

/**
 * Randomized campaign: bursts with heavy same-tick collisions, ~1/16
 * far-future stragglers, every eighth event cascading a follow-up from
 * inside its callback, staged runUntil() horizons that leave a tail
 * pending across rounds, and (when @p with_reset) a reset() half way
 * through with events still pending.
 *
 * Ids are handed out in schedule order, so the queue's contract reads
 * as a property of the pop record: within one reset epoch, pops are
 * strictly increasing in (tick, id) — time order, same-tick events in
 * schedule order — every event fires at its own tick and within the
 * horizon, and every event not discarded by reset() fires exactly once.
 */
void
checkCampaign(std::uint64_t seed, int rounds, int burst, bool with_reset)
{
    EventQueue q;
    std::mt19937_64 rng(seed);
    std::vector<Tick> due;                   // by id
    std::vector<std::pair<Tick, int>> pops;  // current epoch
    std::size_t fired = 0;
    std::size_t discarded = 0;
    Tick horizon = 0;

    std::function<void(Tick, std::uint64_t)> add =
        [&](Tick when, std::uint64_t r) {
            int id = static_cast<int>(due.size());
            due.push_back(when);
            q.schedule(when, [&, id, r](Tick t) {
                EXPECT_EQ(t, due[static_cast<std::size_t>(id)]);
                EXPECT_LE(t, horizon);
                pops.emplace_back(t, id);
                ++fired;
                // Cascade (seq allocated at pop time); r = 1 ends it.
                if ((r & 7) == 0)
                    add(t + static_cast<Tick>(r % 50), 1);
            });
        };
    auto expectOrdered = [&pops] {
        for (std::size_t i = 1; i < pops.size(); ++i)
            ASSERT_LT(pops[i - 1], pops[i]) << "pop " << i;
        pops.clear();
    };

    for (int round = 0; round < rounds; ++round) {
        if (with_reset && round == rounds / 2) {
            ASSERT_GT(q.size(), 0u) << "reset must hit pending events";
            discarded += q.size();
            q.reset();
            expectOrdered();
        }
        Tick base = q.now();
        for (int i = 0; i < burst; ++i) {
            std::uint64_t r = rng();
            add(base + ((r & 15) == 0
                            ? static_cast<Tick>(r % 3'000'000)
                            : static_cast<Tick>((r >> 4) % 64) * 100),
                r >> 8);
        }
        horizon = base + static_cast<Tick>(rng() % 5000);
        q.runUntil(horizon);
    }
    horizon = std::numeric_limits<Tick>::max();
    q.drain();
    expectOrdered();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired + discarded, due.size());
}

TEST(EventQueue, RandomizedCampaignPopsInTickThenScheduleOrder)
{
    // 10 rounds x 1000 events plus cascades: ~11k pops.
    checkCampaign(0x5eed5eedull, 10, 1000, false);
}

TEST(EventQueue, RandomizedCampaignAcrossMidRunReset)
{
    checkCampaign(0xfeedbeefull, 8, 600, true);
}

} // namespace
} // namespace sentinel::sim
