/**
 * @file
 * Fig. 8: large-batch training with first-touch NUMA, Memory Mode,
 * AutoTM, and Sentinel, normalized to first-touch NUMA.  Fast memory
 * stays at 20% of each model's (large-batch) peak.
 */

#include <iostream>

#include "bench_util.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, { "jobs" }, /*operands=*/1);
    const std::vector<std::string> selected = bench::selectModels(args);
    const int jobs = args.getInt("jobs", 1, 1);
    bench::banner("Fig. 8 - large-batch training on Optane HM",
                  "Fig. 8, Sec. VII-B");

    Table t("Fig. 8: throughput normalized to first-touch NUMA "
            "(large batches)",
            { "model", "batch", "NUMA", "Memory Mode", "AutoTM",
              "Sentinel" });

    const std::vector<std::string> policies = { "numa", "memory-mode",
                                                "autotm", "sentinel" };
    std::vector<harness::SweepCell> cells;
    for (const auto &model : selected) {
        harness::ExperimentConfig cfg;
        cfg.model = model;
        cfg.batch = models::modelSpec(model).large_batch;
        for (const auto &p : policies)
            cells.push_back({ cfg, p });
    }
    std::vector<harness::Metrics> results =
        harness::runSweep(cells, jobs);

    double sent_over_numa = 0.0;
    double sent_over_mm = 0.0;
    double sent_over_autotm = 0.0;
    int n = 0;
    for (std::size_t mi = 0; mi < selected.size(); ++mi) {
        const std::string &model = selected[mi];
        const harness::Metrics *row_m = &results[mi * policies.size()];
        const auto &numa = row_m[0];
        const auto &mm = row_m[1];
        const auto &autotm = row_m[2];
        const auto &sentinel = row_m[3];

        t.row()
            .cell(model)
            .cell(numa.batch)
            .cell(1.0, 2)
            .cell(numa.step_time_ms / mm.step_time_ms, 2)
            .cell(numa.step_time_ms / autotm.step_time_ms, 2)
            .cell(numa.step_time_ms / sentinel.step_time_ms, 2);

        sent_over_numa += numa.step_time_ms / sentinel.step_time_ms;
        sent_over_mm += mm.step_time_ms / sentinel.step_time_ms;
        sent_over_autotm += autotm.step_time_ms / sentinel.step_time_ms;
        ++n;
    }
    t.printWithCsv(std::cout);

    if (n > 0) {
        std::cout << strprintf(
            "\nSentinel vs NUMA %.2fx, vs Memory Mode %.2fx, vs AutoTM "
            "%.2fx (averages).\nPaper anchors: 1.7x, 1.2x and 1.1x "
            "respectively for models whose peak exceeds\nfast memory "
            "(Sec. VII-B).\n",
            sent_over_numa / n, sent_over_mm / n, sent_over_autotm / n);
    }
    return 0;
} catch (...) {
    return harness::reportError();
}
