/**
 * @file
 * EventSink ring-buffer semantics: capacity rounding, overwrite-oldest
 * overflow, snapshot ordering — plus the disabled-path guarantee that
 * an executor without a session produces bit-identical results to one
 * with a session attached (telemetry observes, never perturbs).
 */

#include <gtest/gtest.h>

#include "baselines/reference.hh"
#include "dataflow/executor.hh"
#include "mem/hm.hh"
#include "support/test_graphs.hh"
#include "telemetry/event_sink.hh"
#include "telemetry/session.hh"

using namespace sentinel;
using telemetry::Event;
using telemetry::EventSink;
using telemetry::EventType;

namespace {

Event
ev(Tick ts, std::uint32_t id)
{
    Event e;
    e.ts = ts;
    e.id = id;
    e.type = EventType::OpBegin;
    return e;
}

TEST(EventSink, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(EventSink(0).capacity(), 2u);
    EXPECT_EQ(EventSink(5).capacity(), 8u);
    EXPECT_EQ(EventSink(8).capacity(), 8u);
    EXPECT_EQ(EventSink(1000).capacity(), 1024u);
}

TEST(EventSink, RetainsEverythingBelowCapacity)
{
    EventSink sink(8);
    for (std::uint32_t i = 0; i < 5; ++i)
        sink.emit(ev(i, i));
    EXPECT_EQ(sink.size(), 5u);
    EXPECT_EQ(sink.totalEmitted(), 5u);
    EXPECT_EQ(sink.dropped(), 0u);

    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].id, i);
}

TEST(EventSink, OverflowDropsOldestKeepsNewest)
{
    EventSink sink(8);
    for (std::uint32_t i = 0; i < 20; ++i)
        sink.emit(ev(i, i));
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.totalEmitted(), 20u);
    EXPECT_EQ(sink.dropped(), 12u);

    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 8u);
    // Oldest first: ids 12..19.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].id, 12u + i);
}

TEST(EventSink, ClearResets)
{
    EventSink sink(4);
    for (std::uint32_t i = 0; i < 9; ++i)
        sink.emit(ev(i, i));
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_TRUE(sink.snapshot().empty());

    sink.emit(ev(42, 42));
    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].id, 42u);
}

// --- Disabled / attached-path guarantees ---------------------------------

mem::HeterogeneousMemory
makeHm()
{
    mem::TierParams fast{ "dram", 64ull << 20, 76e9, 50e9, 85, 90 };
    mem::TierParams slow{ "pmm", 1ull << 30, 30e9, 10e9, 300, 120 };
    return mem::HeterogeneousMemory({ fast, slow }, { { 8e9, 6e9, 2000 } });
}

std::vector<df::StepStats>
runToy(telemetry::Session *session, int steps)
{
    df::Graph g = sentinel::testing::makeToyGraph();
    auto hm = makeHm();
    hm.setTelemetry(session);
    auto policy = baselines::makeSlowOnly();
    df::Executor ex(g, hm, df::ExecParams{}, *policy);
    ex.setTelemetry(session);
    std::vector<df::StepStats> out;
    for (int i = 0; i < steps; ++i)
        out.push_back(ex.runStep());
    return out;
}

TEST(TelemetryDisabledPath, NullSessionIsSupportedEverywhere)
{
    // No session attached at all: the default state, must just work.
    auto stats = runToy(nullptr, 3);
    EXPECT_EQ(stats.size(), 3u);
    EXPECT_GT(stats.back().step_time, 0);
}

TEST(TelemetryDisabledPath, AttachedSessionDoesNotPerturbSimulation)
{
    auto plain = runToy(nullptr, 4);
    telemetry::Session session;
    auto traced = runToy(&session, 4);

    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].step_time, traced[i].step_time) << "step " << i;
        EXPECT_EQ(plain[i].compute_time, traced[i].compute_time);
        EXPECT_EQ(plain[i].mem_time, traced[i].mem_time);
        EXPECT_EQ(plain[i].exposed_migration, traced[i].exposed_migration);
        EXPECT_EQ(plain[i].bytes_fast, traced[i].bytes_fast);
        EXPECT_EQ(plain[i].bytes_slow, traced[i].bytes_slow);
        EXPECT_EQ(plain[i].promoted_bytes, traced[i].promoted_bytes);
        EXPECT_EQ(plain[i].demoted_bytes, traced[i].demoted_bytes);
    }
    // ...and the traced run actually recorded something.
    EXPECT_GT(session.events().totalEmitted(), 0u);
}

TEST(TelemetryDisabledPath, DetachMidRunStopsRecording)
{
    df::Graph g = sentinel::testing::makeToyGraph();
    auto hm = makeHm();
    auto policy = baselines::makeSlowOnly();
    df::Executor ex(g, hm, df::ExecParams{}, *policy);

    telemetry::Session session;
    ex.setTelemetry(&session);
    ex.runStep();
    std::uint64_t emitted = session.events().totalEmitted();
    EXPECT_GT(emitted, 0u);

    ex.setTelemetry(nullptr);
    ex.runStep();
    EXPECT_EQ(session.events().totalEmitted(), emitted);
}

} // namespace
