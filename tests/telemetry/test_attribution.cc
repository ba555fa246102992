/**
 * @file
 * Unit tests for the stall-attribution engine, the decision audit log,
 * and the ring-drop metric surfaced at export time.
 */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/attribution.hh"
#include "telemetry/audit.hh"
#include "telemetry/session.hh"

using namespace sentinel;
using namespace sentinel::telemetry;

namespace {

TEST(AttributionEngine, ExactDecompositionAcrossContexts)
{
    AttributionEngine attr;
    attr.beginStep(0);

    attr.setLayer(0);
    attr.setInterval(0);
    attr.charge(AttrComponent::Execution, 500, 0);
    attr.setAccessTensor(7);
    // Access-path stall: tensor 7.
    attr.charge(AttrComponent::Exposed, 40, 2);
    attr.setAccessTensor(kAttrNoTensor);

    attr.setLayer(1);
    attr.setInterval(1);
    attr.charge(AttrComponent::Execution, 300, 0);
    attr.charge(AttrComponent::Policy, 25, 0);
    attr.charge(AttrComponent::Fault, 10, 0);
    attr.charge(AttrComponent::Recompute, 5, 0);

    // Alloc bracket: a stall raised while allocating tensor 9 charges
    // as Alloc to tensor 9 even though tensor 7 is the access context.
    attr.setAccessTensor(7);
    attr.beginAlloc(9);
    attr.charge(AttrComponent::Exposed, 60, 1);
    attr.endAlloc();
    attr.setAccessTensor(kAttrNoTensor);

    attr.noteMigration(0, true, 4096);
    attr.noteMigration(0, false, 8192);

    attr.endStep(/*step_time=*/940, /*exposed_migration=*/100,
                 /*policy_time=*/25, /*fault_overhead=*/10,
                 /*recompute_time=*/5, /*num_stalls=*/3);

    ASSERT_EQ(attr.steps().size(), 1u);
    EXPECT_TRUE(attr.allExact());

    AttrBucket t = attr.totals();
    EXPECT_EQ(t.component(AttrComponent::Execution), 800);
    EXPECT_EQ(t.component(AttrComponent::Exposed), 40);
    EXPECT_EQ(t.component(AttrComponent::Alloc), 60);
    EXPECT_EQ(t.component(AttrComponent::Policy), 25);
    EXPECT_EQ(t.component(AttrComponent::Fault), 10);
    EXPECT_EQ(t.component(AttrComponent::Recompute), 5);
    EXPECT_EQ(t.total(), 940);
    EXPECT_EQ(t.exposedMigration(), 100);
    EXPECT_EQ(t.stall_events, 3u);
    EXPECT_EQ(t.promoted_bytes, 4096u);
    EXPECT_EQ(t.demoted_bytes, 8192u);

    // Per-layer split: layer 0 got the execution+stall of the first
    // block, layer 1 everything after setLayer(1).
    ASSERT_EQ(attr.byLayer().count(0), 1u);
    ASSERT_EQ(attr.byLayer().count(1), 1u);
    EXPECT_EQ(attr.byLayer().at(0).total(), 540);
    EXPECT_EQ(attr.byLayer().at(1).total(), 400);
    EXPECT_EQ(attr.byInterval().at(0).stall_events, 2u);
    EXPECT_EQ(attr.byInterval().at(1).stall_events, 1u);

    // Per-tensor: access stall on 7, alloc stall on 9.
    ASSERT_EQ(attr.byTensor().count(7), 1u);
    ASSERT_EQ(attr.byTensor().count(9), 1u);
    EXPECT_EQ(attr.byTensor().at(7).exposed, 40);
    EXPECT_EQ(attr.byTensor().at(7).alloc, 0);
    EXPECT_EQ(attr.byTensor().at(9).alloc, 60);
    EXPECT_EQ(attr.byTensor().at(9).exposed, 0);
}

TEST(AttributionEngine, ChargesOutsideStepsAreIgnored)
{
    AttributionEngine attr;
    // Before any step: dropped.
    attr.charge(AttrComponent::Execution, 100, 0);
    attr.beginStep(0);
    attr.charge(AttrComponent::Execution, 10, 0);
    attr.endStep(10, 0, 0, 0, 0, 0);
    attr.charge(AttrComponent::Policy, 50, 0); // after the step: dropped
    EXPECT_EQ(attr.totals().total(), 10);
    EXPECT_TRUE(attr.allExact());
}

TEST(AttributionEngine, CrossCheckAgainstEventStream)
{
    AttributionEngine attr;
    attr.beginStep(0);
    attr.setAccessTensor(3);
    attr.charge(AttrComponent::Exposed, 120, 1);
    attr.charge(AttrComponent::Exposed, 30, 1);
    attr.endStep(150, 150, 0, 0, 0, 2);

    EventSink sink(16);
    sink.emit(Event{ 10, 120, 0, 3, EventType::Stall, 0 });
    sink.emit(Event{ 200, 30, 0, 3, EventType::Stall, 0 });

    std::string why;
    EXPECT_TRUE(attr.crossCheckEvents(sink, &why)) << why;

    // A missing stall event is a mismatch.
    EventSink partial(16);
    partial.emit(Event{ 10, 120, 0, 3, EventType::Stall, 0 });
    EXPECT_FALSE(attr.crossCheckEvents(partial, &why));
    EXPECT_FALSE(why.empty());
}

TEST(AttributionEngine, CrossCheckIndeterminateAfterRingDrop)
{
    AttributionEngine attr;
    attr.beginStep(0);
    attr.charge(AttrComponent::Exposed, 50, 1);
    attr.endStep(50, 50, 0, 0, 0, 1);

    EventSink sink(2); // tiny ring: overflow guaranteed
    for (int i = 0; i < 8; ++i)
        sink.emit(Event{ Tick(i), 0, 0, 0, EventType::OpBegin, 0 });
    ASSERT_GT(sink.dropped(), 0u);

    std::string why;
    EXPECT_TRUE(attr.crossCheckEvents(sink, &why));
    EXPECT_FALSE(why.empty()); // carries the indeterminate caveat
}

TEST(AuditLog, AppendQueryAndOverflow)
{
    AuditLog log(4);
    for (int i = 0; i < 6; ++i) {
        AuditRecord r;
        r.ts = 100 * (i + 1);
        r.tensor = i % 2 == 0 ? 11u : 22u;
        r.bytes = 4096;
        r.step = i;
        r.reason = i % 2 == 0 ? AuditReason::kPrefetchNextInterval
                              : AuditReason::kEvictDeadTensor;
        log.append(r);
    }
    // Oldest records win on overflow.
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.dropped(), 2u);
    EXPECT_EQ(log.records().front().ts, 100);
    EXPECT_EQ(log.records().back().ts, 400);

    auto hist = log.forTensor(11);
    ASSERT_EQ(hist.size(), 2u);
    EXPECT_EQ(hist[0].step, 0);
    EXPECT_EQ(hist[1].step, 2);

    const AuditRecord *last = log.lastForTensor(22);
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->step, 3);
    EXPECT_EQ(log.lastForTensor(33), nullptr);
}

TEST(AuditLog, MatchMigrationJoinsByTimestampAndDirection)
{
    AuditLog log;
    AuditRecord promote;
    promote.ts = 500;
    promote.tensor = 1;
    promote.reason = AuditReason::kPrefetchNextInterval;
    log.append(promote);

    AuditRecord demote;
    demote.ts = 500; // same tick, opposite direction
    demote.tensor = 2;
    demote.reason = AuditReason::kEvictForSpace;
    log.append(demote);

    const AuditRecord *p = log.matchMigration(500, /*promote=*/true);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->tensor, 1u);
    const AuditRecord *d = log.matchMigration(500, /*promote=*/false);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->tensor, 2u);
    EXPECT_EQ(log.matchMigration(501, true), nullptr);
}

TEST(AuditReason, NamesAndDirections)
{
    EXPECT_STREQ(auditReasonName(AuditReason::kPrefetchNextInterval),
                 "kPrefetchNextInterval");
    EXPECT_STREQ(auditReasonName(AuditReason::kReplanDivergence),
                 "kReplanDivergence");
    EXPECT_TRUE(auditReasonIsPromote(AuditReason::kPrefetchDemand));
    EXPECT_TRUE(auditReasonIsDemote(AuditReason::kEvictForSpace));
    EXPECT_FALSE(auditReasonIsPromote(AuditReason::kPinReservedPool));
    EXPECT_FALSE(auditReasonIsDemote(AuditReason::kPinReservedPool));
}

TEST(SessionDropCounter, DeltaSyncNeverDoubleCounts)
{
    Session session(TelemetryConfig{ 4 });
    for (int i = 0; i < 10; ++i)
        session.emit(EventType::OpBegin, i);
    std::uint64_t dropped = session.events().dropped();
    ASSERT_GT(dropped, 0u);

    session.syncDropCounter();
    EXPECT_EQ(session.metrics().counter("telemetry.events_dropped").value(),
              dropped);

    // Re-syncing with no new drops adds nothing.
    session.syncDropCounter();
    EXPECT_EQ(session.metrics().counter("telemetry.events_dropped").value(),
              dropped);

    // More overflow: only the delta lands.
    for (int i = 0; i < 4; ++i)
        session.emit(EventType::OpBegin, 100 + i);
    std::uint64_t dropped2 = session.events().dropped();
    ASSERT_GT(dropped2, dropped);
    session.syncDropCounter();
    EXPECT_EQ(session.metrics().counter("telemetry.events_dropped").value(),
              dropped2);
}

TEST(SessionDropCounter, NoDropsNoCounter)
{
    Session session(TelemetryConfig{ 64 });
    session.emit(EventType::OpBegin, 1);
    session.syncDropCounter();
    EXPECT_EQ(session.metrics().counter("telemetry.events_dropped").value(),
              0u);
}

} // namespace
