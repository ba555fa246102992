#include "baselines/capuchin.hh"

#include <algorithm>

#include "baselines/autotm.hh" // useEpisodes()
#include "dataflow/cost_model.hh"

namespace sentinel::baselines {

void
CapuchinPolicy::buildSchedule(df::Executor &ex)
{
    const df::Graph &graph = ex.graph();
    std::uint64_t S = ex.hm().tier(mem::Tier::Fast).capacity();
    double promote_bw = ex.hm().promoteChannel().bandwidth();
    int L = db_.numLayers();

    recompute_at_.assign(static_cast<std::size_t>(L), {});
    discard_at_.assign(static_cast<std::size_t>(L), {});
    std::vector<std::uint64_t> ledger = transientLedger(db_);

    std::vector<df::TensorId> order;
    for (const auto &t : db_.tensors())
        if (!t.access_layers.empty())
            order.push_back(t.id);
    std::sort(order.begin(), order.end(),
              [this](df::TensorId a, df::TensorId b) {
                  double ha = db_.tensor(a).accesses_per_page;
                  double hb = db_.tensor(b).accesses_per_page;
                  if (ha != hb)
                      return ha > hb;
                  return a < b;
              });

    auto fits = [&](int begin, int end, std::uint64_t bytes) {
        for (int l = std::max(0, begin); l <= end; ++l)
            if (ledger[static_cast<std::size_t>(l)] + bytes > S)
                return false;
        return true;
    };
    auto claim = [&](int begin, int end, std::uint64_t bytes) {
        for (int l = std::max(0, begin); l <= end; ++l)
            ledger[static_cast<std::size_t>(l)] += bytes;
    };

    for (df::TensorId id : order) {
        const prof::TensorProfile &t = db_.tensor(id);
        if (!t.preallocated && t.lifetimeLayers() <= 2) {
            placement_[id] = Placement::PinFast; // transient, seeded
            continue;
        }

        if (fits(t.first_layer, t.last_layer, t.bytes)) {
            placement_[id] = Placement::PinFast;
            claim(t.first_layer, t.last_layer, t.bytes);
            continue;
        }

        auto episodes = useEpisodes(t.access_layers);

        // Swap if the fwd->bwd gap can hide the transfer.
        bool hideable = episodes.size() >= 2;
        if (hideable) {
            Tick transfer = transferTime(t.bytes, promote_bw);
            for (std::size_t e = 0; e + 1 < episodes.size(); ++e) {
                Tick gap = db_.layerSpanTime(episodes[e].second + 1,
                                             episodes[e + 1].first);
                // The swap must be hidden under the gap while sharing
                // the link with every other in-flight swap.
                hideable = hideable && transfer * 4 <= gap;
            }
        }
        bool space_ok = true;
        for (const auto &e : episodes)
            space_ok = space_ok && fits(e.first - 1, e.second, t.bytes);

        if (hideable && space_ok) {
            placement_[id] = Placement::Swap;
            for (const auto &e : episodes) {
                claim(e.first - 1, e.second, t.bytes);
                swap_in_at_[static_cast<std::size_t>(
                                std::max(0, e.first - 1))]
                    .push_back(id);
                swap_out_at_[static_cast<std::size_t>(e.second)]
                    .push_back(id);
            }
            continue;
        }

        // Recomputation: only activations have a replayable producer.
        // The tensor is born in device memory, DISCARDED (no transfer)
        // after its forward use, and rematerialized by replaying the
        // producer right before the backward use.
        const df::TensorDesc &desc = graph.tensor(id);
        bool recomputable = !desc.preallocated &&
                            desc.kind == df::TensorKind::Activation &&
                            episodes.size() >= 2;
        if (recomputable) {
            placement_[id] = Placement::PinFast; // born on device
            const df::Operation &producer =
                graph.op(static_cast<df::OpId>(desc.first_op));
            Tick cost = df::recomputeTime(producer, ex.params());
            // Resident only during use episodes: discarded after each,
            // rematerialized right before the next.
            for (std::size_t e = 0; e < episodes.size(); ++e) {
                claim(episodes[e].first, episodes[e].second, t.bytes);
                if (e + 1 < episodes.size()) {
                    discard_at_[static_cast<std::size_t>(
                                    episodes[e].second)]
                        .push_back(id);
                    recompute_at_[static_cast<std::size_t>(
                                      episodes[e + 1].first)]
                        .push_back(RecomputeEntry{ id, cost });
                }
            }
            ++recompute_count_;
            continue;
        }

        placement_[id] = gpu_strict_ ? Placement::Swap : Placement::Slow;
        if (gpu_strict_) {
            for (const auto &e : episodes) {
                swap_in_at_[static_cast<std::size_t>(e.first)]
                    .push_back(id);
                swap_out_at_[static_cast<std::size_t>(e.second)]
                    .push_back(id);
            }
        }
    }
}

void
CapuchinPolicy::teleportTensor(df::Executor &ex, df::TensorId id,
                               mem::Tier dst)
{
    if (!ex.isAllocated(id))
        return;
    ex.hm().teleportRange(ex.placementOf(id).run(), dst, ex.now());
}

void
CapuchinPolicy::onLayerBegin(df::Executor &ex, int layer)
{
    ScheduledSwapPolicy::onLayerBegin(ex, layer);
    for (const RecomputeEntry &e :
         recompute_at_[static_cast<std::size_t>(layer)]) {
        if (!ex.isAllocated(e.id))
            continue;
        // Replay the producing op; the result materializes directly in
        // device memory — no transfer, but the compute is exposed.  If
        // the device is momentarily full, wait for in-flight evictions
        // (the recompute kernel cannot launch without its output
        // buffer).
        if (ex.hm().tier(mem::Tier::Fast).free() <
                mem::roundUpToPages(
                    ex.placementOf(e.id).bytes) &&
            ex.hm().demoteBusyUntil() > ex.now()) {
            ex.stallUntil(ex.hm().demoteBusyUntil());
        }
        ex.chargeRecompute(e.cost);
        teleportTensor(ex, e.id, mem::Tier::Fast);
    }
}

void
CapuchinPolicy::onLayerEnd(df::Executor &ex, int layer)
{
    ScheduledSwapPolicy::onLayerEnd(ex, layer);
    // Discards free device memory instantly and move no bytes.
    for (df::TensorId id :
         discard_at_[static_cast<std::size_t>(layer)])
        teleportTensor(ex, id, ex.hm().slowestTier());
}

} // namespace sentinel::baselines
