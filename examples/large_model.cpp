/**
 * @file
 * Large-model training on the Optane platform: BERT-large at a large
 * batch, where peak memory far exceeds the DRAM budget.  Compares the
 * policies a practitioner would actually consider (first-touch NUMA,
 * Memory Mode, AutoTM, Sentinel) and shows how Sentinel's savings
 * translate into trainable batch size on a fixed DRAM budget.
 *
 *   $ ./large_model [model] [batch]
 */

#include <cstdio>
#include <string>

#include "harness/args.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, {}, /*operands=*/2);
    const std::string model = args.operand(0, "bert_large");
    const int batch = args.operand(1, "").empty()
                          ? models::modelSpec(model).large_batch
                          : args.operandInt(1, "batch", 0, 1);

    df::Graph probe = models::makeModel(model, batch);
    std::printf("%s at batch %d: peak memory %.2f GB; DRAM budget = "
                "20%% of that.\n\n",
                model.c_str(), batch,
                static_cast<double>(probe.peakMemoryBytes()) / 1e9);

    harness::ExperimentConfig cfg;
    cfg.model = model;
    cfg.batch = batch;

    std::printf("%-14s %12s %14s %16s %12s\n", "policy", "ms/step",
                "samples/s", "migrated MB/step", "exposed ms");
    double numa_ms = 0.0;
    for (const char *policy :
         { "numa", "memory-mode", "autotm", "sentinel", "fast-only" }) {
        harness::Metrics m = harness::runExperiment(cfg, policy);
        if (std::string(policy) == "numa")
            numa_ms = m.step_time_ms;
        std::printf("%-14s %12.2f %14.1f %16.1f %12.2f\n", policy,
                    m.step_time_ms, m.throughput, m.migrated_mb(),
                    m.exposed_ms);
    }

    harness::Metrics sentinel = harness::runExperiment(cfg, "sentinel");
    std::printf("\nSentinel vs first-touch NUMA: %.2fx throughput "
                "(paper: ~1.7x on average\nfor models whose peak "
                "exceeds fast memory).\n",
                numa_ms / sentinel.step_time_ms);
    std::printf("Sentinel plan: MIL=%d, pool=%.1f MB, case-3 events=%d, "
                "trial steps=%d.\n",
                sentinel.mil, sentinel.pool_mb, sentinel.case3_events,
                sentinel.trial_steps);
    return 0;
} catch (...) {
    return harness::reportError();
}
