/**
 * @file
 * Fig. 11: ResNet scaling — peak memory consumption vs the minimum
 * fast-memory size with which Sentinel performs like fast-only.
 *
 * The paper's point: peak memory grows quickly with model depth while
 * the required fast memory grows much more slowly, thanks to adaptive
 * layer-based migration.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace sentinel;

namespace {

/**
 * Smallest fast fraction (out of a fixed grid) where Sentinel is
 * within @p tolerance of fast-only.
 */
double
minFastFraction(const std::string &model, int batch, double fast_ms,
                double tolerance)
{
    const double grid[] = { 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0 };
    for (double f : grid) {
        harness::ExperimentConfig cfg;
        cfg.model = model;
        cfg.batch = batch;
        cfg.fast_fraction = f;
        harness::Metrics m = harness::runExperiment(cfg, "sentinel");
        if (m.step_time_ms <= fast_ms * (1.0 + tolerance))
            return f;
    }
    return 1.0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv);
    bench::banner("Fig. 11 - ResNet scaling study",
                  "Fig. 11, Sec. VII-B");

    const char *variants[] = { "resnet20", "resnet32", "resnet44",
                               "resnet56", "resnet110", "resnet152",
                               "resnet200" };
    const int batch = 16;
    const double tolerance = 0.05; // "performs the same": within 5%

    Table t("Fig. 11: peak memory vs minimum fast memory for parity",
            { "variant", "layers", "peak memory", "min fast memory",
              "min fraction of peak" });

    for (const char *v : variants) {
        df::Graph g = models::makeModel(v, batch);
        harness::ExperimentConfig cfg;
        cfg.model = v;
        cfg.batch = batch;
        double fast_ms =
            harness::runExperiment(cfg, "fast-only").step_time_ms;
        double frac = minFastFraction(v, batch, fast_ms, tolerance);
        double min_bytes =
            static_cast<double>(g.peakMemoryBytes()) * frac;

        t.row()
            .cell(v)
            .cell(g.numLayers())
            .cell(formatBytes(static_cast<double>(g.peakMemoryBytes())))
            .cell(formatBytes(min_bytes))
            .cell(strprintf("%.0f%%", 100.0 * frac));
    }
    t.printWithCsv(std::cout);

    std::cout << "\nPaper anchor: peak memory rises quickly with depth "
                 "while the fast-memory size\nneeded for parity rises "
                 "much more slowly (Fig. 11).\n";
    return 0;
} catch (...) {
    return harness::reportError();
}
