#include "core/sentinel_policy.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"

namespace sentinel::core {

namespace {

/** One-time planning cost charged to the first step (the "quick
 *  exploration" of Sec. IV-D). */
constexpr Tick kPlannerOverhead = 100 * kUsec;

/** A step counts as divergent when its observed time exceeds
 *  (1 + kDivergenceThreshold) x the planned step time. */
constexpr double kDivergenceThreshold = 0.25;

/** Consecutive divergent steps required before re-planning. */
constexpr int kDivergencePatience = 2;

/** Minimum steps between two re-plans (let the new plan settle). */
constexpr int kReplanCooldown = 3;

/** Planner cost charged to the step that triggers a re-plan. */
constexpr Tick kReplanOverhead = 50 * kUsec;

/** Re-runs of an inconclusive test-and-trial (a Case-2/Case-3
 *  perturbation landing in exactly one of the two trial steps). */
constexpr int kMaxTrialRetries = 2;

} // namespace

SentinelPolicy::SentinelPolicy(const prof::ProfileDatabase &db,
                               SentinelOptions opts)
    : db_(db), opts_(opts), packed_(kPackedBase)
{
}

std::string
SentinelPolicy::name() const
{
    return opts_.gpu_mode ? "sentinel-gpu" : "sentinel";
}

bool
SentinelPolicy::trialDecided() const
{
    return trial_ == TrialState::Idle || trial_ == TrialState::Decided;
}

const char *
SentinelPolicy::trialStateName() const
{
    switch (trial_) {
      case TrialState::Idle:
        return "idle";
      case TrialState::Pending:
        return "pending";
      case TrialState::TrialStall:
        return "trial-stall";
      case TrialState::TrialLeave:
        return "trial-leave";
      case TrialState::Decided:
        return "decided";
    }
    return "?";
}

void
SentinelPolicy::setTelemetry(telemetry::Session *session)
{
    telemetry_ = session;
    if (session) {
        telemetry::MetricRegistry &m = session->metrics();
        divergence_ctr_ = &m.counter("sentinel.divergence_events");
        replan_ctr_ = &m.counter("sentinel.replans");
        lag_ctr_ = &m.counter("sentinel.prefetch_lag_ns");
        evict_ctr_ = &m.counter("sentinel.demand_evictions");
        blocked_ctr_ = &m.counter("sentinel.prefetch_blocked");
    } else {
        divergence_ctr_ = nullptr;
        replan_ctr_ = nullptr;
        lag_ctr_ = nullptr;
        evict_ctr_ = nullptr;
        blocked_ctr_ = nullptr;
    }
}

std::int16_t
SentinelPolicy::currentInterval() const
{
    if (!planned_ || plan_.interval_of.empty())
        return -1;
    return static_cast<std::int16_t>(plan_.intervalOfLayer(current_layer_));
}

void
SentinelPolicy::auditAppend(df::Executor &ex, telemetry::AuditReason reason,
                            std::uint32_t tensor, std::uint64_t bytes)
{
    auditAppendAt(ex, ex.now(), reason, tensor, bytes);
}

void
SentinelPolicy::auditAppendAt(df::Executor &ex, Tick ts,
                              telemetry::AuditReason reason,
                              std::uint32_t tensor, std::uint64_t bytes)
{
    if (!audit_)
        return;
    telemetry::AuditRecord r;
    r.ts = ts;
    r.bytes = bytes;
    r.tensor = tensor;
    r.step = ex.currentStep();
    r.layer = static_cast<std::int16_t>(ex.currentLayer());
    r.interval = currentInterval();
    r.mil = static_cast<std::int16_t>(planned_ ? plan_.mil : 0);
    r.plan_gen = static_cast<std::uint8_t>(replans_);
    r.reason = reason;
    audit_->append(r);
}

std::uint64_t
SentinelPolicy::reservedPoolBytes() const
{
    return pool_ ? pool_->capacity() : 0;
}

std::uint64_t
SentinelPolicy::reservedPoolPeak() const
{
    return pool_ ? pool_->peakUse() : 0;
}

mem::VirtAddr
SentinelPolicy::staticAddress(df::TensorId id) const
{
    SENTINEL_ASSERT(id < static_addr_.size(), "bad tensor id %u", id);
    return static_addr_[id];
}

bool
SentinelPolicy::isPoolPage(mem::PageId page) const
{
    return pool_ && pool_->containsPage(page);
}

void
SentinelPolicy::buildStaticLayout(const df::Graph &graph)
{
    static_addr_.assign(graph.numTensors(), kInvalidAddr);

    // Rule: preallocated tensors never share pages (they cannot be
    // reorganized mid-training; exclusive pages at least stop false
    // sharing).
    alloc::VirtualArena prealloc_arena(kPreallocBase);
    for (df::TensorId id : graph.preallocatedTensors()) {
        const df::TensorDesc &t = graph.tensor(id);
        static_addr_[id] =
            prealloc_arena.allocate(t.pageAlignedBytes(), mem::kPageSize);
    }

    layout_footprint_ = 0;
    if (!opts_.use_coalloc)
        return; // everything else goes through the packed arena

    if (opts_.layout_planner == LayoutPlanner::Interval) {
        // Offline interval-graph offset assignment over the same
        // long-lived set: tensors keep fixed addresses for the whole
        // run (the migration plan needs that), but disjoint-lifetime
        // tensors share bytes — the pages between them unmap and remap
        // through the executor's refcounts.
        std::vector<plan::PlanTensor> tensors = plan::tensorsFromGraph(
            graph, /*include_preallocated=*/false,
            /*long_lived_only=*/true);
        plan::OffsetPlan p =
            plan::assignOffsets(tensors, plan::Solver::Greedy, 64);
        for (std::size_t i = 0; i < tensors.size(); ++i)
            static_addr_[tensors[i].id] = kCoallocBase + p.offsets[i];
        layout_footprint_ = p.footprint;
        return;
    }

    // Rules 2+3: long-lived tensors residing in exactly the same layers
    // share pages, laid out in descending access count; different spans
    // never share.  Each span class gets a page-aligned region.
    std::map<std::pair<int, int>, std::vector<df::TensorId>> classes;
    for (const auto &t : graph.tensors()) {
        if (t.preallocated || t.shortLived())
            continue;
        classes[{ t.first_layer, t.last_layer }].push_back(t.id);
    }

    alloc::VirtualArena coalloc_arena(kCoallocBase);
    for (auto &kv : classes) {
        auto &ids = kv.second;
        std::sort(ids.begin(), ids.end(),
                  [this](df::TensorId a, df::TensorId b) {
                      double ha = db_.tensor(a).accesses_per_page;
                      double hb = db_.tensor(b).accesses_per_page;
                      if (ha != hb)
                          return ha > hb;
                      return a < b;
                  });
        std::uint64_t total = 0;
        for (df::TensorId id : ids)
            total += graph.tensor(id).bytes;
        // Reserve the class region page-aligned, then pack members.
        mem::VirtAddr base = coalloc_arena.allocate(
            mem::roundUpToPages(total), mem::kPageSize);
        mem::VirtAddr cursor = base;
        for (df::TensorId id : ids) {
            static_addr_[id] = cursor;
            cursor += graph.tensor(id).bytes;
            cursor = (cursor + 63) & ~63ull;
        }
    }
    layout_footprint_ = coalloc_arena.highWater();
}

void
SentinelPolicy::computePlan(const PlannerInputs &in, std::uint64_t rs_cap)
{
    IntervalPlanner planner(in);
    planner_result_ = planner.plan(rs_cap);

    if (opts_.use_dynamic_intervals) {
        plan_ = buildMigrationPlan(
            db_, planner.dynamicBoundaries(planner_result_.rs_bytes));
    } else {
        int mil =
            opts_.use_interval_planner ? planner_result_.best.mil : 1;
        if (opts_.forced_mil > 0)
            mil = opts_.forced_mil;
        plan_ = buildMigrationPlan(db_, mil);
    }
    planned_ = true;

    // Per-layer baseline for the divergence monitor; the step estimate
    // is the layer sum plus the exposure the *used* MIL predicts (the
    // forced/ablation MIL may differ from the planner's pick).
    int L = db_.numLayers();
    planned_layer_.assign(static_cast<std::size_t>(L), 0);
    planned_step_time_ = 0;
    for (int l = 0; l < L; ++l) {
        planned_layer_[static_cast<std::size_t>(l)] =
            planner.layerTimeEstimate(l);
        planned_step_time_ += planned_layer_[static_cast<std::size_t>(l)];
    }
    Tick exposed = planner_result_.best.est_exposed;
    for (const IntervalChoice &c : planner_result_.candidates)
        if (c.mil == plan_.mil)
            exposed = c.est_exposed;
    planned_step_time_ += exposed;
    observed_layer_.assign(static_cast<std::size_t>(L), 0);
}

void
SentinelPolicy::onTrainingStart(df::Executor &ex)
{
    const df::Graph &graph = ex.graph();
    mem::HeterogeneousMemory &hm = ex.hm();
    std::uint64_t S = hm.tier(mem::Tier::Fast).capacity();

    std::uint64_t rs_cap = static_cast<std::uint64_t>(
        static_cast<double>(S) * kRsCapFraction);
    rs_cap = mem::roundUpToPages(rs_cap);

    PlannerInputs in;
    in.db = &db_;
    in.fast_capacity = S;
    in.promote_bw = hm.promoteChannel().bandwidth();
    in.fast_read_bw = hm.tierParams(mem::Tier::Fast).read_bw;
    in.slow_read_bw = hm.tierParams(hm.slowestTier()).read_bw;
    computePlan(in, rs_cap);

    if (opts_.use_reserved_pool && planner_result_.rs_bytes > 0) {
        pool_ = std::make_unique<alloc::ReservedPool>(
            kPoolBase, mem::roundUpToPages(planner_result_.rs_bytes));
    }

    buildStaticLayout(graph);
    pool_allocs_.assign(graph.numTensors(), kInvalidAddr);
    packed_allocs_.assign(graph.numTensors(), kInvalidAddr);
    evict_mark_.assign(graph.numTensors(), 0);

    // One-time planning cost (the "quick exploration" of Sec. IV-D).
    ex.chargePolicy(kPlannerOverhead);

    if (opts_.gpu_mode) {
        mode_stall_ = true;
        trial_ = TrialState::Decided;
    }
}

void
SentinelPolicy::replan(df::Executor &ex, int step)
{
    mem::HeterogeneousMemory &hm = ex.hm();

    // Plan against what the run looks like NOW: the live (possibly
    // degraded) bandwidth and capacity, and the profile projected by
    // what the layers actually took.  The divergent step's per-layer
    // times are NOT usable directly — Case-3 stalls concentrate at
    // interval-start layers, and feeding those ratios back would bake
    // transient migration waits into the compute estimates (a re-plan
    // that made things worse than the stale plan).  Environment decay
    // already arrives through the live bandwidth/capacity inputs; the
    // *median* layer ratio isolates genuine compute/traffic drift,
    // which is uniform across layers.
    PlannerInputs in;
    in.db = &db_;
    in.fast_capacity = hm.tier(mem::Tier::Fast).capacity();
    in.promote_bw = hm.promoteChannel().bandwidth();
    in.fast_read_bw = hm.tierParams(mem::Tier::Fast).read_bw;
    in.slow_read_bw = hm.tierParams(hm.slowestTier()).read_bw;
    int L = db_.numLayers();
    std::vector<double> ratios;
    ratios.reserve(static_cast<std::size_t>(L));
    for (int l = 0; l < L; ++l) {
        auto i = static_cast<std::size_t>(l);
        if (planned_layer_[i] > 0 && observed_layer_[i] > 0)
            ratios.push_back(static_cast<double>(observed_layer_[i]) /
                             static_cast<double>(planned_layer_[i]));
    }
    double scale = 1.0;
    if (!ratios.empty()) {
        auto mid = ratios.begin() +
                   static_cast<std::ptrdiff_t>(ratios.size() / 2);
        std::nth_element(ratios.begin(), mid, ratios.end());
        scale = std::clamp(*mid, 0.25, 4.0);
    }
    in.layer_time_scale.assign(static_cast<std::size_t>(L), scale);

    // The reservation cannot move — live allocations sit in the pool —
    // so the re-plan keeps it and redistributes only the migration
    // budget and the interval structure.
    std::uint64_t rs_cap = pool_ ? pool_->capacity() : 0;
    computePlan(in, rs_cap);

    // Queued prefetch intents survive the re-plan: the tensors the old
    // plan wanted soon are overwhelmingly the ones the new plan wants
    // too, and dropping them would force demand misses into the very
    // steps the re-armed trial is about to measure.

    // The stall-vs-leave economics changed with the environment:
    // re-arm the Case-3 test-and-trial (Sec. IV-D) from scratch.
    if (!opts_.gpu_mode) {
        trial_ = TrialState::Idle;
        mode_stall_ = true;
        trial_stall_time_ = 0;
        trial_retries_ = 0;
    }

    // The transition step runs half-old-plan, half-new: any trial it
    // overlaps is void (same S3 guard as a Case-2/Case-3 event).
    ++perturb_this_step_;

    ++replans_;
    last_replan_step_ = step;
    divergent_streak_ = 0;
    ex.chargePolicy(kReplanOverhead);
    auditAppend(ex, telemetry::AuditReason::kReplanDivergence,
                telemetry::kAuditNoTensor, 0);
    if (telemetry_) {
        telemetry_->emit(telemetry::EventType::Replan, ex.now(),
                         kReplanOverhead, 0,
                         static_cast<std::uint32_t>(step));
        replan_ctr_->add(1);
    }
    SENTINEL_INFORM("sentinel: re-planned at step %d (mil %d, plan %s)",
                    step, plan_.mil,
                    planner_result_.best.feasible ? "feasible"
                                                  : "degraded");
}

df::AllocDecision
SentinelPolicy::allocate(df::Executor &ex, const df::TensorDesc &tensor)
{
    SENTINEL_ASSERT(planned_, "allocate() before onTrainingStart()");

    // GPU mode: when device memory cannot host a new tensor, evict
    // what the plan was about to demote anyway and wait for the
    // transfers (host fallback is not an option for compute).  On the
    // CPU platform the slow tier is directly usable, so overflow
    // simply lands there and the test-and-trial economics apply.
    if (opts_.gpu_mode && !tensor.preallocated) {
        mem::HeterogeneousMemory &hm = ex.hm();
        std::uint64_t need = mem::roundUpToPages(tensor.bytes);
        if (hm.tier(mem::Tier::Fast).free() < need) {
            evictForSpace(ex, need);
            if (hm.demoteBusyUntil() > ex.now() &&
                hm.tier(mem::Tier::Fast).free() < need) {
                ex.stallUntil(hm.demoteBusyUntil());
            }
        }
    }

    if (tensor.preallocated) {
        // Before training everything starts in slow memory (Sec. VI) —
        // the chain's far end; the plan prefetches the hot ones
        // immediately (staged through the middle tiers, if any).
        return { static_addr_[tensor.id], ex.hm().slowestTier() };
    }

    if (tensor.shortLived() && pool_) {
        mem::VirtAddr addr = pool_->allocate(tensor.bytes);
        if (addr != alloc::ReservedPool::kInvalidAddr) {
            pool_allocs_[tensor.id] = addr;
            auditAppend(ex, telemetry::AuditReason::kPinReservedPool,
                        tensor.id, tensor.bytes);
            return { addr, mem::Tier::Fast };
        }
        // Pool exhausted: fall through to the overflow path below.
    }

    if (opts_.use_coalloc && !tensor.shortLived()) {
        SENTINEL_ASSERT(static_addr_[tensor.id] != kInvalidAddr,
                        "no static address for tensor %u", tensor.id);
        // Long-lived intermediates are born hot: produce them in fast
        // memory; the plan demotes them once their interval is done.
        return { static_addr_[tensor.id], mem::Tier::Fast };
    }

    // Packed fallback: short-lived overflow (pool exhausted/disabled)
    // or the no-coalloc ablation.
    mem::VirtAddr addr = packed_.allocate(tensor.bytes, 64);
    packed_allocs_[tensor.id] = addr;
    return { addr, mem::Tier::Fast };
}

void
SentinelPolicy::onTensorFreed(df::Executor &ex, df::TensorId id,
                              const df::TensorPlacement &pl)
{
    // allocate() sized this allocation with tensor.bytes; the free
    // path uses the placement's byte count.  They must be the same
    // value or the pool/arena accounting drifts a little on every
    // step until allocations mysteriously start failing.
    SENTINEL_ASSERT(pl.bytes == ex.graph().tensor(id).bytes,
                    "tensor %u freed with %llu bytes but allocated "
                    "with %llu",
                    id, static_cast<unsigned long long>(pl.bytes),
                    static_cast<unsigned long long>(
                        ex.graph().tensor(id).bytes));
    if (id < pool_allocs_.size() && pool_allocs_[id] != kInvalidAddr) {
        pool_->free(pool_allocs_[id], pl.bytes);
        pool_allocs_[id] = kInvalidAddr;
        return;
    }
    if (id < packed_allocs_.size() && packed_allocs_[id] != kInvalidAddr) {
        packed_.free(packed_allocs_[id], pl.bytes);
        packed_allocs_[id] = kInvalidAddr;
    }
    // Static (co-allocated) addresses are fixed for the whole training:
    // the same tensor reuses the same range every step.
}

void
SentinelPolicy::issuePrefetch(df::Executor &ex, int interval)
{
    // Targets not promoted by the previous interval's end are stale:
    // drop them (their accesses will read slow memory) and queue the
    // new interval's list, hottest first.
    const auto &list =
        plan_.prefetch_at[static_cast<std::size_t>(interval)];
    pending_prefetch_.assign(list.begin(), list.end());
    pending_head_ = 0;
    if (telemetry_) {
        for (df::TensorId id : list)
            telemetry_->emit(telemetry::EventType::PrefetchIssued,
                             ex.now(), 0, ex.graph().tensor(id).bytes,
                             id);
    }
    drainPrefetchQueue(ex);
}

void
SentinelPolicy::drainPrefetchQueue(df::Executor &ex)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();

    // Compact the consumed prefix so rotation below never grows the
    // buffer past (live entries + rotations this drain).
    if (pending_head_ > 0) {
        pending_prefetch_.erase(pending_prefetch_.begin(),
                                pending_prefetch_.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        pending_head_));
        pending_head_ = 0;
    }

    // Each entry is visited at most once per drain; tensors that are
    // not allocated yet (born later in the interval, e.g. activations
    // a long interval will demote and re-need) rotate to the back and
    // are retried at the next layer boundary.
    std::size_t visits = pending_prefetch_.size();
    while (visits-- > 0 && pending_head_ < pending_prefetch_.size()) {
        df::TensorId id = pending_prefetch_[pending_head_];
        if (!ex.isAllocated(id)) {
            ++pending_head_;
            pending_prefetch_.push_back(id);
            continue;
        }
        const std::uint64_t want = gatherRuns(
            hm, ex.placementOf(id), now, 1, mem::kMaxTiers - 1);
        // One move_pages() call per tensor: the setup cost is paid
        // once and the pages stream back-to-back.
        std::size_t scheduled =
            hm.migratePages(batch_, mem::Tier::Fast, now);
        if (scheduled > 0)
            auditAppend(ex, telemetry::AuditReason::kPrefetchNextInterval,
                        id, scheduled * mem::kPageSize);
        if (scheduled < want) {
            // Fast memory is full right now; in-flight demotions will
            // free space — retry at the next layer boundary (hotter
            // tensors stay at the queue's front).
            if (telemetry_)
                blocked_ctr_->add(1);
            return;
        }
        ++pending_head_;
    }
}

void
SentinelPolicy::stagePrefetches(df::Executor &ex, int interval)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    if (hm.numTiers() <= 2 || plan_.prefetch_at.empty())
        return;
    Tick now = ex.now();
    int N = static_cast<int>(plan_.prefetch_at.size());

    // Middle tiers are staging buffers (Sec. IV-C generalized): a
    // tensor the plan promotes `lead` intervals from now should sit
    // `lead` legs from fast memory by then, so each interval moves it
    // one leg closer and the final slow->fast hop crosses only link 0.
    // Worked for the 3-tier case: a tensor due in interval k+2 moves
    // slowest->middle now (interval k) and middle->fast at k+1.
    for (unsigned lead = 1; lead + 1 < hm.numTiers(); ++lead) {
        mem::Tier stage = mem::makeTier(lead);
        const auto &list = plan_.prefetch_at[static_cast<std::size_t>(
            (interval + static_cast<int>(lead)) % N)];
        for (df::TensorId id : list) {
            if (!ex.isAllocated(id))
                continue;
            gatherRuns(hm, ex.placementOf(id), now, lead + 1,
                       mem::kMaxTiers - 1);
            // Best-effort: a full middle tier simply leaves the pages
            // where they are; the direct promotion path still covers
            // them when their own interval arrives.
            std::size_t scheduled = hm.migratePages(batch_, stage, now);
            if (scheduled > 0)
                auditAppend(ex, telemetry::AuditReason::kPrefetchStage,
                            id, scheduled * mem::kPageSize);
        }
    }
}

std::uint64_t
SentinelPolicy::gatherRuns(mem::HeterogeneousMemory &hm,
                           const df::TensorPlacement &pl, Tick now,
                           unsigned lo, unsigned hi)
{
    batch_.clear();
    // A placement lives entirely inside or outside the pool region —
    // one check covers every page.
    if (isPoolPage(pl.firstPage()))
        return 0;
    std::uint64_t pages = 0;
    mem::PageId p = pl.firstPage();
    const mem::PageId end = pl.endPage();
    while (p < end) {
        mem::PageRunState rs = hm.residentRange(p, end - p, now);
        const unsigned t = mem::tierIndex(rs.tier);
        if (!rs.in_flight && t >= lo && t <= hi) {
            batch_.push_back(mem::PageRun{ p, rs.count });
            pages += rs.count;
        }
        p += rs.count;
    }
    return pages;
}

void
SentinelPolicy::evictForSpace(df::Executor &ex,
                              std::uint64_t bytes_needed)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::uint64_t reclaimed = 0;

    // Demand eviction is itself a divergence/pressure signal: the plan
    // thought everything would fit.
    ++perturb_this_step_;
    if (telemetry_)
        evict_ctr_->add(1);

    // The walk visits the demotion schedule backward from the current
    // layer, as tests/support/ref_eviction_order.hh lists it.  This
    // call's mark goes on the tensors that order leaves out — the
    // protected ones now, each visited one as it is walked — so the
    // walk allocates nothing and stops once enough is reclaimed.
    if (++evict_epoch_ == 0) {
        std::fill(evict_mark_.begin(), evict_mark_.end(), 0);
        evict_epoch_ = 1;
    }
    for (std::size_t i = pending_head_; i < pending_prefetch_.size(); ++i)
        evict_mark_[pending_prefetch_[i]] = evict_epoch_;
    if (!plan_.prefetch_at.empty())
        for (df::TensorId id : plan_.prefetch_at[static_cast<std::size_t>(
                 plan_.intervalOfLayer(current_layer_))])
            evict_mark_[id] = evict_epoch_;

    // Victims ordered by the demotion schedule walked backward from the
    // current layer: tensors whose demote point just passed have no
    // access until at least the next interval — if any are still
    // resident (e.g. re-promoted early by an aggressive prefetch),
    // they are the safest victims.
    const int L = static_cast<int>(plan_.demote_at_layer.size());
    for (int d = 1; d <= L && reclaimed < bytes_needed; ++d) {
        const int l = (current_layer_ - d + L) % L;
        for (df::TensorId id :
             plan_.demote_at_layer[static_cast<std::size_t>(l)]) {
            if (reclaimed >= bytes_needed)
                break;
            if (evict_mark_[id] == evict_epoch_ || !ex.isAllocated(id))
                continue;
            evict_mark_[id] = evict_epoch_;
            gatherRuns(hm, ex.placementOf(id), now, 0, 0);
            std::size_t scheduled =
                hm.migratePages(batch_, hm.slowestTier(), now);
            if (scheduled > 0)
                auditAppend(ex, telemetry::AuditReason::kEvictForSpace, id,
                            scheduled * mem::kPageSize);
            reclaimed += scheduled * mem::kPageSize;
        }
    }
}

void
SentinelPolicy::issueDemotions(df::Executor &ex, int layer)
{
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    for (df::TensorId id :
         plan_.demote_at_layer[static_cast<std::size_t>(layer)]) {
        if (!ex.isAllocated(id))
            continue;
        gatherRuns(hm, ex.placementOf(id), now, 0, 0);
        std::size_t scheduled =
            hm.migratePages(batch_, hm.slowestTier(), now);
        if (scheduled > 0)
            auditAppend(ex, telemetry::AuditReason::kEvictDeadTensor, id,
                        scheduled * mem::kPageSize);
    }
}

void
SentinelPolicy::onLayerBegin(df::Executor &ex, int layer)
{
    current_layer_ = layer;
    layer_begin_ = ex.now();
    if (ex.attribution())
        ex.attribution()->setInterval(currentInterval());
    if (!plan_.isIntervalStart(layer)) {
        drainPrefetchQueue(ex);
        return;
    }
    int interval = plan_.intervalOfLayer(layer);
    if (telemetry_)
        telemetry_->emit(telemetry::EventType::IntervalBegin, ex.now(), 0,
                         0, static_cast<std::uint32_t>(interval));

    // Case-3 detection: the prefetch issued for *this* interval (at the
    // start of the previous one) has not finished.  Ignore the first
    // steps, whose cold start always has migrations outstanding (the
    // real system skips TensorFlow's hardware-detection steps plus the
    // profiling step before reacting, Sec. VI).
    if (ex.currentStep() >= 3 &&
        ex.hm().promoteBusyUntil() > ex.now()) {
        ++case3_events_;
        ++perturb_this_step_;
        // Prefetch-completion lag: how far behind this interval's
        // prefetch is running — one of the monitor's divergence
        // signals (a bandwidth fault shows up here first).
        Tick lag = ex.hm().promoteBusyUntil() - ex.now();
        lag_this_step_ += lag;
        if (telemetry_)
            lag_ctr_->add(static_cast<std::uint64_t>(lag));
        if (!opts_.gpu_mode && trial_ == TrialState::Idle)
            trial_ = TrialState::Pending;
    }

    issuePrefetch(ex, interval);
    // Middle-tier staging rides behind the interval's own prefetch so
    // the tensors needed soonest get the channels and capacity first.
    stagePrefetches(ex, interval);
}

void
SentinelPolicy::onLayerEnd(df::Executor &ex, int layer)
{
    observed_layer_[static_cast<std::size_t>(layer)] =
        ex.now() - layer_begin_;
    issueDemotions(ex, layer);
}

void
SentinelPolicy::onStepBegin(df::Executor &ex, int)
{
    step_begin_ = ex.now();
    perturb_this_step_ = 0;
    lag_this_step_ = 0;
    switch (trial_) {
      case TrialState::Pending:
        trial_ = TrialState::TrialStall;
        mode_stall_ = true;
        ++trial_steps_;
        break;
      case TrialState::TrialLeave:
        mode_stall_ = false;
        ++trial_steps_;
        break;
      default:
        break;
    }
}

void
SentinelPolicy::onStepEnd(df::Executor &ex, int step)
{
    Tick step_time = ex.now() - step_begin_;
    bool in_trial = trial_ == TrialState::TrialStall ||
                    trial_ == TrialState::TrialLeave;
    if (trial_ == TrialState::TrialStall) {
        trial_stall_time_ = step_time;
        trial_stall_perturb_ = perturb_this_step_;
        trial_ = TrialState::TrialLeave;
    } else if (trial_ == TrialState::TrialLeave) {
        if (perturb_this_step_ != trial_stall_perturb_ &&
            trial_retries_ < kMaxTrialRetries) {
            // A Case-2/Case-3 perturbation landed in exactly one of
            // the two trial steps: the stall-vs-leave times are not
            // comparable.  Re-run the trial instead of committing to
            // a decision taken on noise.
            ++trial_retries_;
            trial_ = TrialState::Pending;
        } else {
            // Adopt whichever variant was faster (Sec. IV-D).
            mode_stall_ = trial_stall_time_ <= step_time;
            trial_ = TrialState::Decided;
        }
    }

    // --- Divergence monitor -------------------------------------------
    // Trial steps deliberately run off-policy (they measure variants),
    // and the cold start always diverges; neither says the profile went
    // stale.
    if (!opts_.enable_divergence_monitor || in_trial || step < 3)
        return;
    Tick planned = planned_step_time_;
    if (planned <= 0)
        return;
    bool slow_step =
        static_cast<double>(step_time) >
        static_cast<double>(planned) * (1.0 + kDivergenceThreshold);
    // Prefetch lag is tracked (lag counter, Case-3 events) but only an
    // actually-slow step feeds the streak: persistent lag behind an
    // acceptable step time means the plan is still hiding the latency,
    // and re-planning would destabilize a working configuration.
    if (slow_step) {
        ++divergence_events_;
        ++divergent_streak_;
        if (telemetry_) {
            telemetry_->emit(telemetry::EventType::DivergenceDetected,
                             ex.now(), 0,
                             static_cast<std::uint64_t>(step_time),
                             static_cast<std::uint32_t>(step));
            divergence_ctr_->add(1);
        }
    } else {
        divergent_streak_ = 0;
    }
    bool cooled =
        last_replan_step_ < 0 ||
        step - last_replan_step_ >= kReplanCooldown;
    if (divergent_streak_ >= kDivergencePatience && cooled &&
        replans_ < kMaxReplans) {
        replan(ex, step);
    }
}

void
SentinelPolicy::onRangeAccess(df::Executor &ex, mem::PageRun run, bool,
                              std::vector<df::AccessSegment> &out)
{
    if (!opts_.gpu_mode) {
        // CPU mode never reacts to accesses (migration happens at
        // interval boundaries): the whole run is one segment, and the
        // executor's walk applies stallForInflight() per page across
        // any migration boundary.
        df::AccessSegment seg;
        seg.pages = run.count;
        out.push_back(seg);
        return;
    }
    // GPU mode: device-resident or already-migrating prefixes take no
    // fault; a host-resident idle run is demand-faulted back.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    std::uint64_t covered = 0;
    while (covered < run.count) {
        mem::PageRunState rs = hm.residentRange(run.first + covered,
                                                run.count - covered, now);
        if (rs.tier != mem::Tier::Fast && !rs.in_flight) {
            if (covered == 0) {
                demandFault(ex, run.first, rs, out);
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
SentinelPolicy::demandFault(df::Executor &ex, mem::PageId page,
                            const mem::PageRunState &rs,
                            std::vector<df::AccessSegment> &out)
{
    // The device cannot compute out of host memory, so a page that
    // slipped to the host (born when the device was full) is faulted
    // back on first touch — a rare, fully exposed path that keeps
    // large batches *correct*; the plan keeps it infrequent.
    mem::HeterogeneousMemory &hm = ex.hm();
    Tick now = ex.now();
    if (hm.tier(mem::Tier::Fast).free() < mem::kPageSize)
        evictForSpace(ex, 64 * mem::kPageSize);

    // The executor's attribution context knows which tensor's pages are
    // being walked; borrow it so the demand-fault record names a tensor.
    std::uint32_t faulted = ex.attribution()
                                ? ex.attribution()->accessTensor()
                                : telemetry::kAuditNoTensor;

    df::AccessSegment seg;
    seg.pages = 1;
    // The faults that fit on the device now form one series, each page
    // pulled across as soon as the previous one lands.
    const std::uint64_t k = std::min<std::uint64_t>(
        rs.count, hm.tier(mem::Tier::Fast).free() / mem::kPageSize);
    if (k > 0) {
        const sim::TransferSeries a =
            hm.faultSeries(page, k, mem::Tier::Fast, now, 0);
        auditAppend(ex, telemetry::AuditReason::kPrefetchDemand, faulted,
                    k * mem::kPageSize);
        seg.pages = k;
        seg.extra = a.last() - now;
        seg.stall_events = k;
        seg.effective = mem::Tier::Fast;
    } else if (hm.demoteBusyUntil() > now) {
        // Wait for evictions, then pull the page across.
        const Tick freed = hm.demoteBusyUntil();
        seg.extra = freed - now;
        seg.stall_events = 1;
        hm.commitUpTo(freed);
        const mem::PageRun one[] = { { page, 1 } };
        if (hm.migratePages(one, mem::Tier::Fast, freed) == 1) {
            // The transfer starts when the demote channel frees, later
            // than ex.now() — stamp the record at the migration's
            // schedule time so the trace join holds.
            auditAppendAt(ex, freed,
                          telemetry::AuditReason::kPrefetchDemand, faulted,
                          mem::kPageSize);
            seg.extra += hm.flightInfo(page).arrival - freed;
            seg.effective = mem::Tier::Fast;
        }
    }
    out.push_back(seg);
}

bool
SentinelPolicy::stallForInflight(df::Executor &, mem::PageId page)
{
    if (isPoolPage(page))
        return false; // pool pages are never migrated
    return mode_stall_;
}

} // namespace sentinel::core
