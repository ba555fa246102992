#include "telemetry/attribution.hh"

#include "common/logging.hh"
#include "telemetry/event.hh"

namespace sentinel::telemetry {

const char *
attrComponentName(AttrComponent c)
{
    switch (c) {
      case AttrComponent::Execution:
        return "execution";
      case AttrComponent::Exposed:
        return "exposed";
      case AttrComponent::Alloc:
        return "alloc";
      case AttrComponent::Policy:
        return "policy";
      case AttrComponent::Fault:
        return "fault";
      case AttrComponent::Recompute:
        return "recompute";
    }
    return "?";
}

Tick
AttrBucket::total() const
{
    Tick sum = 0;
    for (Tick t : ticks)
        sum += t;
    return sum;
}

Tick
AttrBucket::exposedMigration() const
{
    return component(AttrComponent::Exposed) +
           component(AttrComponent::Alloc);
}

void
AttrBucket::add(const AttrBucket &o)
{
    for (std::size_t i = 0; i < kNumAttrComponents; ++i)
        ticks[i] += o.ticks[i];
    stall_events += o.stall_events;
    promoted_bytes += o.promoted_bytes;
    demoted_bytes += o.demoted_bytes;
}

bool
StepAttribution::exact() const
{
    return bucket.total() == step_time &&
           bucket.exposedMigration() == exposed_migration &&
           bucket.component(AttrComponent::Policy) == policy_time &&
           bucket.component(AttrComponent::Fault) == fault_overhead &&
           bucket.component(AttrComponent::Recompute) == recompute_time &&
           bucket.stall_events == num_stalls;
}

void
AttributionEngine::beginStep(int step)
{
    SENTINEL_ASSERT(!in_step_, "beginStep(%d) while step %d still open",
                    step, step_);
    in_step_ = true;
    step_ = step;
    layer_ = -1;
    access_tensor_ = kAttrNoTensor;
    alloc_tensor_ = kAttrNoTensor;
    in_alloc_ = false;
    current_ = AttrBucket{};
}

void
AttributionEngine::endStep(Tick step_time, Tick exposed_migration,
                           Tick policy_time, Tick fault_overhead,
                           Tick recompute_time, std::uint64_t num_stalls)
{
    SENTINEL_ASSERT(in_step_, "endStep without a matching beginStep");
    in_step_ = false;

    StepAttribution sa;
    sa.step = step_;
    sa.bucket = current_;
    sa.step_time = step_time;
    sa.exposed_migration = exposed_migration;
    sa.policy_time = policy_time;
    sa.fault_overhead = fault_overhead;
    sa.recompute_time = recompute_time;
    sa.num_stalls = num_stalls;

    if (!sa.exact()) {
        SENTINEL_PANIC(
            "attribution drift in step %d: attributed total %lld "
            "(exec %lld exposed %lld alloc %lld policy %lld fault %lld "
            "recompute %lld, %llu stalls) vs StepStats step_time %lld "
            "exposed_migration %lld policy %lld fault %lld recompute "
            "%lld num_stalls %llu",
            step_, static_cast<long long>(sa.bucket.total()),
            static_cast<long long>(
                sa.bucket.component(AttrComponent::Execution)),
            static_cast<long long>(
                sa.bucket.component(AttrComponent::Exposed)),
            static_cast<long long>(
                sa.bucket.component(AttrComponent::Alloc)),
            static_cast<long long>(
                sa.bucket.component(AttrComponent::Policy)),
            static_cast<long long>(
                sa.bucket.component(AttrComponent::Fault)),
            static_cast<long long>(
                sa.bucket.component(AttrComponent::Recompute)),
            static_cast<unsigned long long>(sa.bucket.stall_events),
            static_cast<long long>(step_time),
            static_cast<long long>(exposed_migration),
            static_cast<long long>(policy_time),
            static_cast<long long>(fault_overhead),
            static_cast<long long>(recompute_time),
            static_cast<unsigned long long>(num_stalls));
    }
    steps_.push_back(sa);
    exposed_cum_ += sa.bucket.exposedMigration();
    // The per-link decomposition must stay exact too: every exposed /
    // alloc tick was routed to exactly one link slot.
    Tick link_sum = 0;
    for (const LinkAttr &la : link_slots_)
        link_sum += la.exposedMigration();
    if (link_sum != exposed_cum_) {
        SENTINEL_PANIC(
            "per-link attribution drift after step %d: link slots sum "
            "to %lld exposed ticks, engine attributed %lld",
            sa.step, static_cast<long long>(link_sum),
            static_cast<long long>(exposed_cum_));
    }
    step_ = -1;
    layer_ = -1;
}

void
AttributionEngine::beginAlloc(std::uint32_t tensor)
{
    SENTINEL_ASSERT(!in_alloc_, "nested tensor allocation");
    in_alloc_ = true;
    alloc_tensor_ = tensor;
}

void
AttributionEngine::endAlloc()
{
    in_alloc_ = false;
    alloc_tensor_ = kAttrNoTensor;
}

void
AttributionEngine::charge(AttrComponent c, Tick t, std::uint64_t events)
{
    if (!in_step_ || (t == 0 && events == 0))
        return;
    if (c == AttrComponent::Exposed && in_alloc_)
        c = AttrComponent::Alloc;
    maps_stale_ = true;
    current_.ticks[static_cast<std::size_t>(c)] += t;
    current_.stall_events += events;

    AttrBucket &layer =
        slotAt(layer_slots_, static_cast<std::size_t>(layer_ + 1));
    layer.ticks[static_cast<std::size_t>(c)] += t;
    layer.stall_events += events;

    AttrBucket &interval =
        slotAt(interval_slots_, static_cast<std::size_t>(interval_ + 1));
    interval.ticks[static_cast<std::size_t>(c)] += t;
    interval.stall_events += events;

    if (c == AttrComponent::Exposed || c == AttrComponent::Alloc) {
        std::uint32_t tensor =
            in_alloc_ ? alloc_tensor_ : access_tensor_;
        // tensor + 1 wraps kAttrNoTensor (~0u) to slot 0.
        TensorAttr &ta = slotAt(
            tensor_slots_, static_cast<std::size_t>(
                               static_cast<std::uint32_t>(tensor + 1)));
        if (c == AttrComponent::Alloc)
            ta.alloc += t;
        else
            ta.exposed += t;
        ta.stall_events += events;

        // Per-link decomposition: each exposed tick belongs to the one
        // link the executor is blocking on (link 0 unless set).
        LinkAttr &la =
            slotAt(link_slots_, static_cast<std::size_t>(stall_link_));
        if (c == AttrComponent::Alloc)
            la.alloc += t;
        else
            la.exposed += t;
        la.stall_events += events;
    }
}

void
AttributionEngine::noteMigration(unsigned link, bool promote,
                                 std::uint64_t bytes)
{
    if (!in_step_)
        return;
    maps_stale_ = true;
    if (promote)
        current_.promoted_bytes += bytes;
    else
        current_.demoted_bytes += bytes;
    AttrBucket &layer =
        slotAt(layer_slots_, static_cast<std::size_t>(layer_ + 1));
    AttrBucket &interval =
        slotAt(interval_slots_, static_cast<std::size_t>(interval_ + 1));
    LinkAttr &la = slotAt(link_slots_, static_cast<std::size_t>(link));
    if (promote) {
        layer.promoted_bytes += bytes;
        interval.promoted_bytes += bytes;
        la.promoted_bytes += bytes;
    } else {
        layer.demoted_bytes += bytes;
        interval.demoted_bytes += bytes;
        la.demoted_bytes += bytes;
    }
}

AttrBucket
AttributionEngine::totals() const
{
    AttrBucket sum;
    for (const StepAttribution &sa : steps_)
        sum.add(sa.bucket);
    return sum;
}

bool
AttributionEngine::allExact() const
{
    for (const StepAttribution &sa : steps_)
        if (!sa.exact())
            return false;
    return true;
}

bool
AttributionEngine::crossCheckEvents(const EventSink &sink,
                                    std::string *why) const
{
    if (sink.dropped() > 0) {
        // The ring lost history; the surviving Stall events are a
        // subset and cannot be expected to sum to the attributed total.
        if (why)
            *why = strprintf("indeterminate: ring dropped %llu events",
                             static_cast<unsigned long long>(
                                 sink.dropped()));
        return true;
    }
    Tick event_stall = 0;
    std::uint64_t event_count = 0;
    for (const Event &e : sink.snapshot()) {
        if (e.type == EventType::Stall) {
            event_stall += e.dur;
            ++event_count;
        }
    }
    AttrBucket sum = totals();
    if (event_stall != sum.exposedMigration()) {
        if (why)
            *why = strprintf(
                "event stream claims %lld stall ticks over %llu events, "
                "attribution claims %lld over %llu",
                static_cast<long long>(event_stall),
                static_cast<unsigned long long>(event_count),
                static_cast<long long>(sum.exposedMigration()),
                static_cast<unsigned long long>(sum.stall_events));
        return false;
    }
    if (why)
        *why = "ok";
    return true;
}

void
AttributionEngine::refreshMaps() const
{
    if (!maps_stale_)
        return;
    maps_stale_ = false;

    auto touched = [](const AttrBucket &b) {
        if (b.stall_events || b.promoted_bytes || b.demoted_bytes)
            return true;
        for (Tick t : b.ticks)
            if (t != 0)
                return true;
        return false;
    };

    by_layer_.clear();
    for (std::size_t i = 0; i < layer_slots_.size(); ++i)
        if (touched(layer_slots_[i]))
            by_layer_[static_cast<int>(i) - 1] = layer_slots_[i];

    by_interval_.clear();
    for (std::size_t i = 0; i < interval_slots_.size(); ++i)
        if (touched(interval_slots_[i]))
            by_interval_[static_cast<int>(i) - 1] = interval_slots_[i];

    by_tensor_.clear();
    for (std::size_t i = 0; i < tensor_slots_.size(); ++i) {
        const TensorAttr &ta = tensor_slots_[i];
        if (ta.exposed == 0 && ta.alloc == 0 && ta.stall_events == 0)
            continue;
        // Slot 0 is the wrapped kAttrNoTensor context.
        by_tensor_[static_cast<std::uint32_t>(i) - 1] = ta;
    }
}

void
AttributionEngine::clear()
{
    step_ = -1;
    layer_ = -1;
    interval_ = -1;
    access_tensor_ = kAttrNoTensor;
    alloc_tensor_ = kAttrNoTensor;
    in_alloc_ = false;
    in_step_ = false;
    stall_link_ = 0;
    current_ = AttrBucket{};
    exposed_cum_ = 0;
    steps_.clear();
    link_slots_.clear();
    layer_slots_.clear();
    interval_slots_.clear();
    tensor_slots_.clear();
    maps_stale_ = false;
    by_layer_.clear();
    by_interval_.clear();
    by_tensor_.clear();
}

} // namespace sentinel::telemetry
