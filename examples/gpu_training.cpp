/**
 * @file
 * Sentinel-GPU: train on the V100-style platform (HBM fast tier, host
 * memory over PCIe as the slow tier).  Shows the two headline GPU
 * results: throughput against Unified Memory and the other swapping
 * runtimes, and the maximum trainable batch on a fixed device-memory
 * budget.
 *
 *   $ ./gpu_training [model]
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
    const harness::Args args(argc, argv, {}, /*operands=*/1);
    const std::string model = args.operand(0, "resnet32");
    const auto &spec = models::modelSpec(model);
    int batch = spec.small_batch;

    df::Graph probe = models::makeModel(model, batch);
    std::uint64_t device =
        mem::roundUpToPages(probe.peakMemoryBytes() * 3 / 5);
    std::printf("%s at batch %d on the GPU platform; device memory "
                "%.1f MB (60%% of peak).\n\n",
                model.c_str(), batch,
                static_cast<double>(device) / 1e6);

    harness::ExperimentConfig cfg;
    cfg.model = model;
    cfg.batch = batch;
    cfg.platform = harness::Platform::Gpu;
    cfg.fast_bytes = device;

    harness::Metrics um = harness::runExperiment(cfg, "um");
    std::printf("%-14s %12s %14s %12s %14s\n", "policy", "ms/step",
                "samples/s", "vs UM", "recompute ms");
    for (const auto &policy : harness::gpuPolicies()) {
        harness::Metrics m = harness::runExperiment(cfg, policy);
        if (!m.supported) {
            std::printf("%-14s %12s\n", policy.c_str(),
                        "unsupported");
            continue;
        }
        if (!m.feasible) {
            std::printf("%-14s %12s\n", policy.c_str(),
                        "out of memory");
            continue;
        }
        std::printf("%-14s %12.2f %14.1f %11.2fx %14.2f\n",
                    policy.c_str(), m.step_time_ms, m.throughput,
                    um.step_time_ms / m.step_time_ms, m.recompute_ms);
    }

    std::printf("\nMax batch on %.1f MB of device memory:\n",
                static_cast<double>(device) / 1e6);
    for (const char *policy : { "tf", "vdnn", "sentinel" }) {
        if (std::string(policy) == "vdnn" && !spec.has_convs) {
            std::printf("  %-10s unsupported (no conv layers)\n",
                        policy);
            continue;
        }
        int b = harness::maxBatchSearch(model, policy, device,
                                        spec.small_batch * 16);
        std::printf("  %-10s batch %d\n", policy, b);
    }
    return 0;
} catch (...) {
    return harness::reportError();
}
