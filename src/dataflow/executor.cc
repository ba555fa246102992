#include "dataflow/executor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace sentinel::df {

Executor::Executor(const Graph &graph, mem::HeterogeneousMemory &hm,
                   ExecParams params, MemoryPolicy &policy)
    : graph_(graph), hm_(hm), params_(params), policy_(policy),
      edge_refs_(2 * graph.numTensors())
{
    SENTINEL_ASSERT(graph_.finalized(), "graph must be finalized");
    placements_.resize(graph_.numTensors());
    live_.assign(graph_.numTensors(), 0);
}

bool
Executor::isAllocated(TensorId id) const
{
    return id < live_.size() && live_[id] != 0;
}

const TensorPlacement &
Executor::placementOf(TensorId id) const
{
    SENTINEL_ASSERT(isAllocated(id), "placementOf() of unallocated tensor %u",
                    id);
    return placements_[id];
}

int
Executor::pageRefCount(mem::PageId page) const
{
    int n = 0;
    for (TensorId id = 0; id < live_.size(); ++id)
        if (live_[id] && placements_[id].firstPage() <= page &&
            page < placements_[id].endPage())
            ++n;
    return n;
}

mem::PageRun
Executor::updateEdgeRefs(const TensorPlacement &pl, std::int32_t delta)
{
    mem::PageId lo = pl.firstPage();
    mem::PageId hi = pl.endPage();
    if (lo == hi)
        return { lo, 0 };
    const mem::PageId last = hi - 1;
    // Live tensors on page p other than this one: the count before an
    // allocation's increment, after a free's decrement.
    auto others = [&](mem::PageId p) {
        const std::int32_t after = edge_refs_.add(p, delta);
        return delta > 0 ? after - delta : after;
    };
    if (others(lo) > 0)
        ++lo;
    if (last != pl.firstPage() && others(last) > 0)
        hi = last;
    return { lo, hi - lo };
}

void
Executor::setTelemetry(telemetry::Session *session)
{
    telemetry_ = session;
    if (session) {
        telemetry::MetricRegistry &m = session->metrics();
        fast_bytes_ctr_ = &m.counter("exec.bytes_fast");
        slow_bytes_ctr_ = &m.counter("exec.bytes_slow");
        fast_peak_gauge_ = &m.gauge("mem.fast_peak_bytes");
        stall_hist_ = &m.histogram("exec.stall_ns");
        op_hist_ = &m.histogram("exec.op_ns");
    } else {
        fast_bytes_ctr_ = nullptr;
        slow_bytes_ctr_ = nullptr;
        fast_peak_gauge_ = nullptr;
        stall_hist_ = nullptr;
        op_hist_ = nullptr;
    }
}

void
Executor::chargeExposed(Tick t)
{
    chargeExposedEvents(t, t > 0 ? 1 : 0);
}

void
Executor::chargeExposedEvents(Tick t, std::uint64_t events)
{
    SENTINEL_ASSERT(t >= 0, "negative exposed charge");
    if (t == 0 && events == 0)
        return;
    if (telemetry_ && t > 0) {
        telemetry_->emit(telemetry::EventType::Stall, now_, t, 0,
                         static_cast<std::uint32_t>(step_counter_));
        stall_hist_->record(static_cast<std::uint64_t>(t));
    }
    now_ += t;
    stats_.exposed_migration += t;
    stats_.num_stalls += events;
    if (attr_)
        attr_->charge(telemetry::AttrComponent::Exposed, t, events);
}

void
Executor::stallUntil(Tick t)
{
    if (t > now_)
        chargeExposed(t - now_);
}

void
Executor::chargePolicy(Tick t)
{
    SENTINEL_ASSERT(t >= 0, "negative policy charge");
    if (telemetry_ && t > 0)
        telemetry_->emit(telemetry::EventType::PolicyDecision, now_, t, 0,
                         static_cast<std::uint32_t>(step_counter_));
    now_ += t;
    stats_.policy_time += t;
    if (attr_)
        attr_->charge(telemetry::AttrComponent::Policy, t, 0);
}

void
Executor::chargeRecompute(Tick t)
{
    SENTINEL_ASSERT(t >= 0, "negative recompute charge");
    now_ += t;
    stats_.recompute_time += t;
    if (attr_)
        attr_->charge(telemetry::AttrComponent::Recompute, t, 0);
}

void
Executor::allocateTensor(TensorId id)
{
    SENTINEL_ASSERT(!isAllocated(id), "tensor %u allocated twice", id);
    const TensorDesc &t = graph_.tensor(id);
    // Stalls raised while the policy makes room (evict-for-space waits)
    // are charged to the tensor being allocated, not the last accessed.
    if (attr_)
        attr_->beginAlloc(id);
    AllocDecision dec = policy_.allocate(*this, t);

    TensorPlacement pl{ dec.addr, t.bytes };
    const mem::PageRun fresh = updateEdgeRefs(pl, +1);
    if (fresh.count > 0)
        hm_.mapRange(fresh.first, fresh.count, dec.preferred);
    placements_[id] = pl;
    live_[id] = 1;
    notePeakFastUsage();
    policy_.onTensorAllocated(*this, id, pl);
    if (attr_)
        attr_->endAlloc();
}

void
Executor::freeTensor(TensorId id)
{
    SENTINEL_ASSERT(isAllocated(id), "freeing unallocated tensor %u", id);
    TensorPlacement pl = placements_[id];
    policy_.onTensorFreed(*this, id, pl);
    const mem::PageRun gone = updateEdgeRefs(pl, -1);
    if (gone.count > 0) {
        policy_.onRangeUnmapped(*this, gone);
        hm_.unmapRange(gone.first, gone.count, now_);
    }
    live_[id] = 0;
}

void
Executor::notePeakFastUsage()
{
    stats_.peak_fast_used =
        std::max(stats_.peak_fast_used, hm_.tier(mem::Tier::Fast).used());
    for (unsigned t = 0; t < hm_.numTiers(); ++t)
        stats_.peak_tier_used[t] = std::max(
            stats_.peak_tier_used[t], hm_.tier(mem::makeTier(t)).used());
}

void
Executor::accountPages(mem::Tier tier, mem::PageRun run, mem::PageId first,
                       UseTraffic tr, const TensorUse &use, TensorKind kind,
                       Tick *mem_total)
{
    // Remainder distribution: pages [0, rem) carry q+1 bytes, the rest
    // q, so the per-use total is exactly use.traffic_bytes.
    const std::uint64_t idx = run.first - first;
    const std::uint64_t n = run.count;
    std::uint64_t fat =
        idx < tr.rem ? std::min<std::uint64_t>(n, tr.rem - idx) : 0;
    std::uint64_t lean = n - fat;
    std::uint64_t bytes = tr.q * n + fat;
    const mem::TierParams &tp = hm_.tierParams(tier);
    if (fat > 0)
        *mem_total += static_cast<Tick>(fat) *
                      memoryTime(tr.q + 1, use.episodes_per_page,
                                 use.is_write, tp);
    if (lean > 0)
        *mem_total += static_cast<Tick>(lean) *
                      memoryTime(tr.q, use.episodes_per_page, use.is_write,
                                 tp);
    if (tier == mem::Tier::Fast) {
        stats_.bytes_fast += bytes;
    } else {
        stats_.bytes_slow += bytes;
        stats_.addSlowBytes(kind, bytes);
    }
    if (trace_)
        trace_->record(mem::tierName(tier), now_, bytes);

    // Profiling: every access to a poisoned page faults.  The run's
    // faults land before the caller's next residency query, so the
    // clock advances exactly as a page-by-page walk would advance it
    // (no page of a resolved run changes state in between).
    if (tracker_) {
        std::uint64_t episodes = static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, std::llround(use.episodes_per_page)));
        Tick fault = tracker_->onAccess(run, use.is_write, episodes);
        if (fault > 0) {
            now_ += fault;
            stats_.fault_overhead += fault;
            if (attr_)
                attr_->charge(telemetry::AttrComponent::Fault, fault, 0);
        }
    }
}

void
Executor::execUseRanges(const TensorUse &use, const TensorPlacement &pl,
                        UseTraffic tr, TensorKind kind, Tick *mem_total)
{
    const mem::PageId first = pl.firstPage();
    const mem::PageId end = pl.endPage();
    mem::PageId pos = first;
    while (pos < end) {
        seg_buf_.clear();
        policy_.onRangeAccess(*this, mem::PageRun{ pos, end - pos },
                              use.is_write, seg_buf_);
        SENTINEL_ASSERT(!seg_buf_.empty(),
                        "onRangeAccess covered no pages (tensor %u)",
                        use.tensor);
        for (const AccessSegment &seg : seg_buf_) {
            SENTINEL_ASSERT(seg.pages > 0 && pos + seg.pages <= end,
                            "bad access segment (%llu pages at %llu)",
                            static_cast<unsigned long long>(seg.pages),
                            static_cast<unsigned long long>(pos));
            if (seg.extra > 0 || seg.stall_events > 0)
                chargeExposedEvents(seg.extra, seg.stall_events);
            if (seg.effective) {
                accountPages(*seg.effective, { pos, seg.pages }, first, tr,
                             use, kind, mem_total);
                pos += seg.pages;
                continue;
            }
            std::uint64_t left = seg.pages;
            while (left > 0) {
                mem::PageRunState rs = hm_.residentRange(pos, left, now_);
                if (!rs.in_flight) {
                    // The fast path: one charge for the whole run.
                    accountPages(rs.tier, { pos, rs.count }, first, tr,
                                 use, kind, mem_total);
                    pos += rs.count;
                    left -= rs.count;
                    continue;
                }
                // Migration boundary: resolve page by page, since each
                // page has its own arrival and a stall here can land
                // later pages' transfers (changing their state).  With
                // no stall the clock stands still and the page is read
                // from rs.tier, its source.
                mem::Tier at = rs.tier;
                const mem::HeterogeneousMemory::FlightInfo fi =
                    hm_.flightInfo(pos);
                if (fi.toward_fast &&
                    policy_.stallForInflight(*this, pos)) {
                    if (attr_)
                        attr_->setStallLink(fi.link);
                    stallUntil(fi.arrival);
                    if (attr_)
                        attr_->setStallLink(0);
                    at = hm_.residentRange(pos, 1, now_).tier;
                }
                accountPages(at, { pos, 1 }, first, tr, use, kind,
                             mem_total);
                pos += 1;
                left -= 1;
            }
        }
    }
}

void
Executor::execOp(const Operation &op)
{
    Tick compute = computeTime(op, params_);
    double traffic_scale = 1.0;
    if (chaos_) {
        compute = static_cast<Tick>(
            static_cast<double>(compute) *
            chaos_->computeScale(current_layer_));
        traffic_scale = chaos_->trafficScale();
    }
    Tick mem_total = 0;
    Tick op_start = now_;

    if (telemetry_)
        telemetry_->emit(telemetry::EventType::OpBegin, now_, 0,
                         op.totalTraffic(), op.id);

    for (const TensorUse &use : op.uses) {
        if (attr_)
            attr_->setAccessTensor(use.tensor);
        const TensorPlacement &pl = placementOf(use.tensor);
        std::uint64_t npages = pl.numPages();
        SENTINEL_ASSERT(npages > 0, "empty placement for tensor %u",
                        use.tensor);
        std::uint64_t traffic = use.traffic_bytes;
        if (traffic_scale != 1.0)
            traffic = static_cast<std::uint64_t>(
                static_cast<double>(traffic) * traffic_scale);
        UseTraffic tr{ traffic / npages, traffic % npages };
        TensorKind kind = graph_.tensor(use.tensor).kind;
        execUseRanges(use, pl, tr, kind, &mem_total);
    }

    Tick t = opTime(compute, mem_total, params_);
    now_ += t;
    stats_.compute_time += compute;
    stats_.mem_time += mem_total;
    if (attr_) {
        attr_->setAccessTensor(telemetry::kAttrNoTensor);
        attr_->charge(telemetry::AttrComponent::Execution, t, 0);
    }
    if (telemetry_) {
        telemetry_->emit(telemetry::EventType::OpEnd, now_, 0, 0, op.id);
        op_hist_->record(static_cast<std::uint64_t>(now_ - op_start));
    }
    notePeakFastUsage();
}

StepStats
Executor::runStep()
{
    stats_ = StepStats{};
    stats_.step = step_counter_;
    Tick step_start = now_;
    if (attr_)
        attr_->beginStep(step_counter_);
    promoted_at_step_start_ = hm_.stats().promoted_bytes;
    demoted_at_step_start_ = hm_.stats().demoted_bytes;

    // Fold and apply this step's faults before anything (including a
    // first-step onTrainingStart) observes the memory system, so a
    // chaos schedule starting at step 0 degrades even the plan.
    if (chaos_) {
        chaos_->beginStep(step_counter_);
        hm_.setMigrationBandwidthScale(chaos_->promoteBwScale(),
                                       chaos_->demoteBwScale());
        for (unsigned t = 0; t < hm_.numTiers(); ++t)
            hm_.setTierCapacityScale(t, chaos_->capacityScale(t));
        const sim::StepStalls &st = chaos_->stepStalls();
        if (st.promote > 0 || st.demote > 0)
            hm_.stallMigration(now_, st.promote, st.demote);
    }

    if (telemetry_)
        telemetry_->emit(telemetry::EventType::StepBegin, now_, 0, 0,
                         static_cast<std::uint32_t>(step_counter_));

    if (!training_started_) {
        policy_.onTrainingStart(*this);
        for (TensorId id : graph_.preallocatedTensors())
            allocateTensor(id);
        training_started_ = true;
    }

    policy_.onStepBegin(*this, step_counter_);

    for (int layer = 0; layer < graph_.numLayers(); ++layer) {
        current_layer_ = layer;
        if (attr_)
            attr_->setLayer(layer);
        policy_.onLayerBegin(*this, layer);
        for (OpId op_id : graph_.opsInLayer(layer)) {
            const Operation &op = graph_.op(op_id);
            for (TensorId id : graph_.tensorsBornAtOp(op_id))
                if (!graph_.tensor(id).preallocated)
                    allocateTensor(id);
            execOp(op);
            for (TensorId id : graph_.tensorsDyingAtOp(op_id))
                if (!graph_.tensor(id).preallocated)
                    freeTensor(id);
        }
        policy_.onLayerEnd(*this, layer);
    }
    current_layer_ = -1;
    if (attr_)
        attr_->setLayer(-1);

    policy_.onStepEnd(*this, step_counter_);

    stats_.step_time = now_ - step_start;
    stats_.promoted_bytes =
        hm_.stats().promoted_bytes - promoted_at_step_start_;
    stats_.demoted_bytes = hm_.stats().demoted_bytes - demoted_at_step_start_;

    if (attr_)
        attr_->endStep(stats_.step_time, stats_.exposed_migration,
                       stats_.policy_time, stats_.fault_overhead,
                       stats_.recompute_time, stats_.num_stalls);

    // The session's run totals are the sum and maximum of the steps
    // it saw complete, published from this step's stats.
    if (telemetry_) {
        telemetry_->emit(telemetry::EventType::StepEnd, now_, 0, 0,
                         static_cast<std::uint32_t>(step_counter_));
        fast_bytes_ctr_->add(stats_.bytes_fast);
        slow_bytes_ctr_->add(stats_.bytes_slow);
        fast_peak_gauge_->noteMax(stats_.peak_fast_used);
    }

    ++step_counter_;
    return stats_;
}

std::vector<StepStats>
Executor::run(int n)
{
    std::vector<StepStats> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(runStep());
    return out;
}

} // namespace sentinel::df
