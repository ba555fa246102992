/**
 * @file
 * Table III: evaluation models — batch sizes, peak memory, and
 * Sentinel's runtime/memory overheads (profiling + test-and-trial
 * steps, profiling-phase memory overhead), plus the profiling-step
 * slowdown of Sec. VII-B.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"

int
main(int argc, char **argv)
try {
    using namespace sentinel;
    const harness::Args args(argc, argv);
    bench::banner("Table III - models and Sentinel overheads",
                  "Table III, Sec. VII-B");

    Table t("Table III: DNN models",
            { "model", "batch (S/L)", "layers", "ops", "tensors",
              "peak mem (S)", "peak mem (L)", "prof+trial steps",
              "prof slowdown", "mem overhead" });

    for (const auto &spec : models::modelZoo()) {
        df::Graph small = models::makeModel(spec.name, spec.small_batch);
        df::Graph large = models::makeModel(spec.name, spec.large_batch);

        // Profiling overheads measured at the small batch.
        auto cfg = core::RuntimeConfig::optane(
            mem::roundUpToPages(small.peakMemoryBytes() / 5));
        mem::HeterogeneousMemory phm(cfg.tierChain(), cfg.linkChain());
        prof::Profiler profiler(cfg.profiler);
        auto profile = profiler.profile(small, phm, cfg.exec);

        // Trial steps come from a short training run.
        harness::ExperimentConfig ec;
        ec.model = spec.name;
        ec.batch = spec.small_batch;
        harness::Metrics m = harness::runExperiment(ec, "sentinel");

        t.row()
            .cell(spec.name)
            .cell(strprintf("%d / %d", spec.small_batch,
                            spec.large_batch))
            .cell(small.numLayers())
            .cell(static_cast<std::uint64_t>(small.numOps()))
            .cell(static_cast<std::uint64_t>(small.numTensors()))
            .cell(formatBytes(
                static_cast<double>(small.peakMemoryBytes())))
            .cell(formatBytes(
                static_cast<double>(large.peakMemoryBytes())))
            .cell(strprintf("1 + %d", m.trial_steps))
            .cell(strprintf("%.1fx", profile.profilingSlowdown()))
            .cell(strprintf("%.2f%%", 100.0 * profile.memoryOverhead()));
    }
    t.printWithCsv(std::cout);

    std::cout << "\nPaper anchors: ~1.8 profiling+trial steps on "
                 "average, profiling step extended\nby up to 5x, memory "
                 "overhead at most 2.4% (Sec. VII-B).\n";
    return 0;
} catch (...) {
    return sentinel::harness::reportError();
}
