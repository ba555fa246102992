/**
 * @file
 * Three-tier DRAM-size sweep: how much middle tier does staged
 * prefetch need?
 *
 * The LLM-era hierarchy is HBM -> DRAM -> NVMe: the fast tier is fixed
 * by the accelerator, the slow tier is effectively unbounded, and the
 * knob an operator actually buys is the DRAM staging buffer in the
 * middle.  For each workload this bench runs the sentinel cell on the
 * classic two-tier system once as the reference, then sweeps the
 * middle tier from 1x to 8x the fast tier's size (the
 * `ExperimentConfig::mid_fraction` knob, `--mid-capacity` on the CLI)
 * and reports step time, exposed migration, and migrated volume at
 * each point.  Staged prefetch turns DRAM into lead time: a larger
 * middle tier lets the planner start the slow leg of a two-leg
 * prefetch earlier, so exposed stalls should fall monotonically until
 * the working set fits and the curve flattens.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "models/synthetic.hh"

using namespace sentinel;

namespace {

constexpr double kMidFractions[] = { 1.0, 2.0, 4.0, 8.0 };

} // namespace

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, { "jobs" }, /*operands=*/1);
    // Two LLM presets (the hierarchy's target scale) plus the smallest
    // conv net as a sanity row at the other end of the spectrum.
    const std::vector<std::string> workloads =
        bench::selectModels(args, { "llm:tiny", "llm:small", "resnet32" });
    const int jobs = args.getInt("jobs", 1, 1);
    bench::banner("three-tier DRAM-size sweep (bench_ntier)",
                  "Sec. III interval migration, staged through a "
                  "middle tier");

    Table t("Sentinel on HBM+DRAM+NVMe vs. the two-tier reference",
            { "model", "mid (x fast)", "step (ms)", "2-tier step (ms)",
              "exposed (ms)", "migrated (MB)", "throughput" });

    for (const std::string &model : workloads) {
        harness::ExperimentConfig base;
        base.model = model;
        base.batch = models::modelSpec(model).small_batch;

        std::vector<harness::SweepCell> cells;
        cells.push_back({ base, "sentinel" }); // two-tier reference
        for (double mf : kMidFractions) {
            harness::ExperimentConfig cfg = base;
            cfg.tiers = 3;
            cfg.mid_fraction = mf;
            cells.push_back({ cfg, "sentinel" });
        }
        std::vector<harness::Metrics> m =
            harness::runSweep(cells, jobs);

        const harness::Metrics &ref = m[0];
        for (std::size_t i = 0; i < std::size(kMidFractions); ++i) {
            const harness::Metrics &cell = m[i + 1];
            t.row()
                .cell(model)
                .cell(kMidFractions[i], 1)
                .cell(cell.step_time_ms)
                .cell(ref.step_time_ms)
                .cell(cell.exposed_ms)
                .cell(cell.migrated_mb())
                .cell(cell.throughput);
        }
    }
    t.printWithCsv(std::cout);
    return 0;
} catch (...) {
    return harness::reportError();
}
