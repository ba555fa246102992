/**
 * @file
 * Fig. 12: GPU training throughput for UM, vDNN, AutoTM, SwapAdvisor,
 * Capuchin, and Sentinel-GPU at three batch sizes per model,
 * normalized to Unified Memory.  Fig. 13 comes from the same sweep:
 * (a) the fraction of each largest-batch step spent on exposed
 * migration and on recomputation, and (b) Sentinel's own ablation —
 * "direct" migration (no interval planning, no reservation),
 * "w/ det. MI" (planned intervals, no reservation), and "w/ all"
 * (full Sentinel, Fig. 12's own Sentinel cell).
 *
 * Paper anchors: Sentinel-GPU reaches 1.1x-7.8x over UM, ~2x over
 * vDNN, +65% over SwapAdvisor, +17% over AutoTM, +16% over Capuchin.
 */

#include <iostream>
#include <iterator>

#include "bench_util.hh"

using namespace sentinel;

namespace {

/** One Fig. 13b row: which Sentinel mechanisms are switched on. */
struct Variant {
    const char *name;
    bool planner;
    bool pool;
    bool coalloc;

    /** Full Sentinel: Fig. 12's own cell, not a cell of its own. */
    bool full() const { return planner && pool && coalloc; }
};

const Variant kVariants[] = {
    { "direct migration", false, false, true },
    { "w/ det. MI", true, false, true },
    { "w/ all", true, true, true },
    // Repo extra: quantify the co-allocation (false-sharing)
    // contribution the paper attributes 9-21% to.
    { "w/ all, packed layout", true, true, false },
};
const std::size_t kExtraVariants = std::size(kVariants) - 1;

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, bench::evaluationModels());
    bench::banner("Fig. 12 + Fig. 13 - GPU training throughput "
                  "(normalized to UM) and breakdown",
                  "Fig. 12 / Fig. 13, Sec. VII-C");

    Table t("Fig. 12: throughput normalized to Unified Memory",
            { "model", "batch", "UM", "vDNN", "AutoTM", "SwapAdvisor",
              "Capuchin", "Sentinel" });
    Table brk("Fig. 13a: exposed migration / recomputation share of one "
              "step",
              { "model", "policy", "step (ms)", "exposed (ms)",
                "exposed %", "recompute (ms)", "recompute %" });
    Table abl("Fig. 13b: Sentinel-GPU ablation",
              { "model", "variant", "step (ms)", "exposed %",
                "vs full Sentinel" });

    const std::vector<std::string> policies = {
        "um", "vdnn", "autotm", "swapadvisor", "capuchin", "sentinel",
    };
    const std::size_t kBatches = 3;
    const std::size_t stride = kBatches * policies.size() + kExtraVariants;
    std::vector<harness::SweepCell> cells;
    for (const auto &model : bench::evaluationModels()) {
        if (!args.only.empty() && model != args.only)
            continue;
        const auto &spec = models::modelSpec(model);
        df::Graph probe = models::makeModel(model, spec.small_batch);
        std::uint64_t dev =
            mem::roundUpToPages(probe.peakMemoryBytes() * 3 / 5);

        const int batches[kBatches] = { spec.small_batch,
                                        spec.small_batch * 3 / 2,
                                        spec.small_batch * 2 };
        harness::ExperimentConfig cfg;
        cfg.model = model;
        cfg.platform = harness::Platform::Gpu;
        cfg.fast_bytes = dev;
        for (int batch : batches) {
            cfg.batch = batch;
            for (const auto &p : policies)
                cells.push_back({ cfg, p });
        }
        // Fig. 13b at the largest batch.
        for (const Variant &v : kVariants) {
            if (v.full())
                continue;
            cfg.sentinel.use_interval_planner = v.planner;
            cfg.sentinel.use_reserved_pool = v.pool;
            cfg.sentinel.use_coalloc = v.coalloc;
            cells.push_back({ cfg, "sentinel" });
        }
    }
    std::vector<harness::Metrics> results =
        harness::runSweep(cells, args.jobs);

    for (std::size_t mi = 0; mi < results.size(); mi += stride) {
        for (std::size_t bi = 0; bi < kBatches; ++bi) {
            const harness::Metrics *row_m =
                &results[mi + bi * policies.size()];
            const auto &um = row_m[0];
            auto &row =
                t.row().cell(um.model).cell(um.batch).cell(1.0, 2);
            for (std::size_t pi = 1; pi < policies.size(); ++pi) {
                const auto &m = row_m[pi];
                if (!m.supported || !m.feasible)
                    row.cell("X");
                else
                    row.cell(m.throughput / um.throughput, 2);
            }
        }

        // Fig. 13a: every policy but UM at the largest batch.
        const harness::Metrics *largest =
            &results[mi + (kBatches - 1) * policies.size()];
        for (std::size_t pi = 1; pi < policies.size(); ++pi) {
            const auto &m = largest[pi];
            if (!m.supported || !m.feasible) {
                brk.row().cell(m.model).cell(policies[pi]).cell("X").cell(
                    "-").cell("-").cell("-").cell("-");
                continue;
            }
            brk.row()
                .cell(m.model)
                .cell(policies[pi])
                .cell(m.step_time_ms, 2)
                .cell(m.exposed_ms, 2)
                .cell(100.0 * m.exposed_ms / m.step_time_ms, 1)
                .cell(m.recompute_ms, 2)
                .cell(100.0 * m.recompute_ms / m.step_time_ms, 1);
        }

        // Fig. 13b: full Sentinel's step time is known up front, so
        // every variant gets its ratio.
        const harness::Metrics &full = largest[policies.size() - 1];
        const harness::Metrics *extra =
            &results[mi + kBatches * policies.size()];
        for (const Variant &v : kVariants) {
            const harness::Metrics &m = v.full() ? full : *extra++;
            abl.row()
                .cell(m.model)
                .cell(v.name)
                .cell(m.step_time_ms, 2)
                .cell(100.0 * m.exposed_ms / m.step_time_ms, 1)
                .cell(strprintf("%.2fx",
                                m.step_time_ms / full.step_time_ms));
        }
    }
    t.printWithCsv(std::cout);
    brk.printWithCsv(std::cout);
    abl.printWithCsv(std::cout);

    std::cout << "\n'X' = unsupported graph (vDNN on LSTM/BERT) or "
                 "batch beyond the policy's\ndevice-memory reach.  "
                 "Paper anchors in the file header.\n";
    std::cout << "\nFig. 13 paper anchors: vDNN exposes ~3x more "
                 "migration than\nSentinel-GPU; SwapAdvisor's migration "
                 "overhead is 81% larger; Capuchin\nspends ~11% of the "
                 "step recomputing; the interval planner and the\nspace "
                 "reservation each buy several percent (Sec. VII-C, "
                 "Fig. 13).\n";
    return 0;
}
