/**
 * @file
 * Fig. 5: training-step time as a function of the migration interval
 * length (MIL), ResNet-32 on the Optane platform at 20% fast memory.
 *
 * The paper reports ~21% spread across MIL 5..11 with an interior
 * optimum (best at 8).  This bench sweeps MIL, marks the planner's
 * own choice, and reports the spread.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, {}, /*operands=*/1);
    const std::string model = bench::modelOperand(args, "resnet32");
    bench::banner("Fig. 5 - performance vs. migration interval length",
                  "Fig. 5, Sec. IV-D");

    harness::ExperimentConfig cfg;
    cfg.model = model;
    cfg.batch = models::modelSpec(model).small_batch;

    // What does the planner itself choose?
    harness::Metrics planned = harness::runExperiment(cfg, "sentinel");

    Table t("Fig. 5: step time vs. MIL (" + model + ")",
            { "MIL", "step time (ms)", "exposed (ms)",
              "migrated (MB/step)", "planner's pick" });

    double best = 1e300;
    double worst = 0.0;
    for (int mil : { 1, 2, 3, 4, 5, 6, 8, 11, 16, 22, 33 }) {
        cfg.sentinel.forced_mil = mil;
        harness::Metrics m = harness::runExperiment(cfg, "sentinel");
        best = std::min(best, m.step_time_ms);
        worst = std::max(worst, m.step_time_ms);
        t.row()
            .cell(mil)
            .cell(m.step_time_ms)
            .cell(m.exposed_ms)
            .cell(m.migrated_mb(), 1)
            .cell(mil == planned.mil ? "<== planner" : "");
    }
    t.printWithCsv(std::cout);

    std::cout << strprintf(
        "\nSpread across the sweep: %.1f%% (paper: ~21%% across MIL "
        "5..11).\nPlanner chose MIL=%d at %.2f ms without trying any "
        "extra training steps\n(Eq. 1 + Eq. 2, Sec. IV-D).\n",
        100.0 * (worst - best) / best, planned.mil,
        planned.step_time_ms);
    return 0;
} catch (...) {
    return harness::reportError();
}
