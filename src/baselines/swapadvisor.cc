#include "baselines/swapadvisor.hh"

#include <algorithm>

#include "baselines/autotm.hh" // useEpisodes()
#include "common/logging.hh"

namespace sentinel::baselines {

double
SwapAdvisorPolicy::evaluate(const Genome &genome,
                            std::uint64_t fast_capacity,
                            double promote_bw, bool apply)
{
    std::vector<std::uint64_t> ledger = transientLedger(db_);

    // Placement order: genome priority, descending.
    std::vector<std::size_t> order(candidates_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&genome](std::size_t a, std::size_t b) {
                  if (genome[a].priority != genome[b].priority)
                      return genome[a].priority > genome[b].priority;
                  return a < b;
              });

    auto fits = [&](int begin, int end, std::uint64_t bytes) {
        for (int l = std::max(0, begin); l <= end; ++l)
            if (ledger[static_cast<std::size_t>(l)] + bytes >
                fast_capacity)
                return false;
        return true;
    };
    auto claim = [&](int begin, int end, std::uint64_t bytes) {
        for (int l = std::max(0, begin); l <= end; ++l)
            ledger[static_cast<std::size_t>(l)] += bytes;
    };

    double penalty = 0.0;

    for (std::size_t idx : order) {
        df::TensorId id = candidates_[idx];
        const prof::TensorProfile &t = db_.tensor(id);
        const Gene &g = genome[idx];
        if (!t.preallocated && t.lifetimeLayers() <= 2) {
            if (apply)
                placement_[id] = Placement::PinFast; // transient
            continue;
        }

        if (fits(t.first_layer, t.last_layer, t.bytes)) {
            claim(t.first_layer, t.last_layer, t.bytes);
            if (apply)
                placement_[id] = Placement::PinFast;
            continue;
        }

        auto episodes = useEpisodes(t.access_layers);
        bool ok = true;
        for (const auto &e : episodes)
            ok = ok && fits(e.first - g.lead, e.second, t.bytes);
        if (ok) {
            double transfer =
                static_cast<double>(t.bytes) / promote_bw * 1e9;
            for (const auto &e : episodes) {
                claim(e.first - g.lead, e.second, t.bytes);
                int in_at = std::max(0, e.first - g.lead);
                if (apply) {
                    placement_[id] = Placement::Swap;
                    swap_in_at_[static_cast<std::size_t>(in_at)]
                        .push_back(id);
                    swap_out_at_[static_cast<std::size_t>(e.second)]
                        .push_back(id);
                }
                // Exposure when the lead window is shorter than the
                // transfer.
                double window = static_cast<double>(
                    db_.layerSpanTime(in_at, e.first));
                penalty += std::max(0.0, transfer - window);
            }
            continue;
        }

        if (gpu_strict_) {
            // The device cannot serve this tensor from host memory:
            // force a zero-lead swap with no capacity claim.  The
            // churn it causes is fully exposed, so the GA is pushed
            // toward genomes that avoid forcing anything.
            double transfer =
                static_cast<double>(t.bytes) / promote_bw * 1e9;
            penalty += 2.0 * transfer *
                       static_cast<double>(episodes.size());
            if (apply) {
                placement_[id] = Placement::Swap;
                for (const auto &e : episodes) {
                    swap_in_at_[static_cast<std::size_t>(e.first)]
                        .push_back(id);
                    swap_out_at_[static_cast<std::size_t>(e.second)]
                        .push_back(id);
                }
            }
            continue;
        }

        if (apply)
            placement_[id] = Placement::Slow;
        // Slow accesses: one traffic-shaped term per use episode.
        double eps = static_cast<double>(t.access_layers.size());
        penalty += eps * static_cast<double>(t.bytes) *
                   (1.0 / slow_read_bw_ - 1.0 / fast_read_bw_) * 1e9;
    }
    return penalty;
}

void
SwapAdvisorPolicy::onStepBegin(df::Executor &ex, int)
{
    step_begin_ = ex.now();
    // The genetic search co-runs with training; its candidate
    // simulations and synchronization take a share of every step —
    // and for large models the search outlives the paper's 30-minute
    // budget entirely (Sec. VII-C).
    if (last_step_time_ > 0) {
        ex.chargePolicy(static_cast<Tick>(
            kSearchOverheadFraction *
            static_cast<double>(last_step_time_)));
    }
}

void
SwapAdvisorPolicy::onStepEnd(df::Executor &ex, int)
{
    last_step_time_ = ex.now() - step_begin_;
}

void
SwapAdvisorPolicy::buildSchedule(df::Executor &ex)
{
    std::uint64_t S = ex.hm().tier(mem::Tier::Fast).capacity();
    double bw = ex.hm().promoteChannel().bandwidth();
    fast_read_bw_ = ex.hm().tierParams(mem::Tier::Fast).read_bw;
    slow_read_bw_ = ex.hm().tierParams(ex.hm().slowestTier()).read_bw;

    candidates_.clear();
    for (const auto &t : db_.tensors()) {
        if (t.access_layers.empty())
            continue;
        candidates_.push_back(t.id);
    }

    Rng rng(kSeed);
    auto random_genome = [&]() {
        Genome g(candidates_.size());
        for (std::size_t i = 0; i < g.size(); ++i) {
            // Random start: the GA explores the raw joint space, which
            // is exactly why the real system needs ~30 minutes of
            // simulation-driven search.
            g[i].priority = rng.uniformReal(0.0, 1.0);
            g[i].lead = static_cast<int>(rng.uniformInt(1, 4));
        }
        return g;
    };

    // One hotness-informed member anchors the population (the real GA
    // reaches schedules of at least this quality given its budget);
    // elitism preserves it while crossover explores around it.
    double max_hot = 1.0;
    for (df::TensorId id : candidates_)
        max_hot = std::max(max_hot, db_.tensor(id).accesses_per_page);
    Genome informed(candidates_.size());
    for (std::size_t i = 0; i < informed.size(); ++i) {
        informed[i].priority =
            db_.tensor(candidates_[i]).accesses_per_page / max_hot;
        informed[i].lead = 1;
    }

    std::vector<Genome> pop;
    std::vector<double> fit;
    pop.push_back(std::move(informed));
    fit.push_back(evaluate(pop.back(), S, bw, false));
    while (static_cast<int>(pop.size()) < kPopulation) {
        pop.push_back(random_genome());
        fit.push_back(evaluate(pop.back(), S, bw, false));
    }

    auto tournament = [&]() -> const Genome & {
        std::size_t best = static_cast<std::size_t>(
            rng.uniformInt(0, kPopulation - 1));
        for (int i = 0; i < 2; ++i) {
            std::size_t other = static_cast<std::size_t>(
                rng.uniformInt(0, kPopulation - 1));
            if (fit[other] < fit[best])
                best = other;
        }
        return pop[best];
    };

    for (int gen = 0; gen < kGenerations; ++gen) {
        std::vector<Genome> next;
        std::vector<double> next_fit;
        // Elitism: carry the current best forward.
        std::size_t best = static_cast<std::size_t>(
            std::min_element(fit.begin(), fit.end()) - fit.begin());
        next.push_back(pop[best]);
        next_fit.push_back(fit[best]);

        while (static_cast<int>(next.size()) < kPopulation) {
            const Genome &a = tournament();
            const Genome &b = tournament();
            Genome child(a.size());
            for (std::size_t i = 0; i < child.size(); ++i) {
                child[i] = rng.bernoulli(0.5) ? a[i] : b[i];
                if (rng.bernoulli(kMutationRate)) {
                    child[i].priority += rng.normal(0.0, 0.2);
                    child[i].lead =
                        static_cast<int>(rng.uniformInt(1, 4));
                }
            }
            next_fit.push_back(evaluate(child, S, bw, false));
            next.push_back(std::move(child));
        }
        pop = std::move(next);
        fit = std::move(next_fit);
    }

    std::size_t best = static_cast<std::size_t>(
        std::min_element(fit.begin(), fit.end()) - fit.begin());
    evaluate(pop[best], S, bw, /*apply=*/true);
}

} // namespace sentinel::baselines
