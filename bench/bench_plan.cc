/**
 * @file
 * Offline memory planning: interval-graph offset assignment vs.
 * Sentinel's greedy per-class co-allocation, across the model zoo and
 * the committed synthetic fuzz corpus.
 *
 * For each workload the bench lays out the long-lived tensor set both
 * ways and reports the static footprint, the live-peak lower bound,
 * and the fragmentation each solver leaves; then it runs the full
 * sentinel cell under both `planner=greedy` and `planner=interval` so
 * the footprint win can be read against the simulated peak fast-tier
 * occupancy and step time.  The interval plan can never be larger than
 * the class packing (it relaxes the same problem), and on graphs with
 * interleaved lifetimes it is strictly smaller.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "models/synthetic.hh"
#include "plan/offset_planner.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, { "jobs" }, /*operands=*/1);
    std::vector<std::string> workloads = bench::evaluationModels();
    for (std::uint64_t seed : models::kCommittedFuzzSeeds)
        workloads.push_back("synthetic:" + std::to_string(seed));
    workloads = bench::selectModels(args, workloads);
    const int jobs = args.getInt("jobs", 1, 1);
    bench::banner("offline memory planning - interval vs. greedy layout",
                  "Sec. IV-B co-allocation; hannk/TFLite-style planning");

    Table t("Static layout: greedy class packing vs. interval plan",
            { "model", "tensors", "greedy (MB)", "interval (MB)",
              "saved %", "live peak (MB)", "frag %", "peak fast g (MB)",
              "peak fast i (MB)", "step g (ms)", "step i (ms)" });

    int strictly_smaller = 0;
    int larger = 0;
    for (const std::string &model : workloads) {
        const int batch = models::modelSpec(model).small_batch;
        df::Graph g = models::makeModel(model, batch);
        std::vector<plan::PlanTensor> pts = plan::tensorsFromGraph(
            g, /*include_preallocated=*/false, /*long_lived_only=*/true);
        plan::OffsetPlan layout =
            plan::assignOffsets(pts, plan::Solver::Greedy);

        harness::ExperimentConfig cfg;
        cfg.model = model;
        cfg.batch = batch;
        std::vector<harness::SweepCell> cells;
        cells.push_back({ cfg, "sentinel" });
        cells.back().cfg.planner = "greedy";
        cells.push_back({ cfg, "sentinel" });
        cells.back().cfg.planner = "interval";
        std::vector<harness::Metrics> m =
            harness::runSweep(cells, jobs);

        double greedy_mb = m[0].layout_mb;
        double interval_mb = m[1].layout_mb;
        if (interval_mb < greedy_mb)
            ++strictly_smaller;
        else if (interval_mb > greedy_mb)
            ++larger;
        t.row()
            .cell(model)
            .cell(static_cast<std::uint64_t>(pts.size()))
            .cell(greedy_mb)
            .cell(interval_mb)
            .cell(greedy_mb > 0.0
                      ? 100.0 * (greedy_mb - interval_mb) / greedy_mb
                      : 0.0,
                  1)
            .cell(static_cast<double>(layout.live_peak) / 1e6)
            .cell(layout.fragmentation() * 100.0, 1)
            .cell(m[0].peak_fast_mb)
            .cell(m[1].peak_fast_mb)
            .cell(m[0].step_time_ms)
            .cell(m[1].step_time_ms);
    }
    t.printWithCsv(std::cout);

    std::cout << strprintf(
        "\nInterval plan strictly smaller on %d workloads, larger on %d "
        "(must be 0 -- the class packing solves a restriction of the "
        "same problem).\n",
        strictly_smaller, larger);
    return larger == 0 ? 0 : 1;
} catch (...) {
    return harness::reportError();
}
