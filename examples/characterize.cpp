/**
 * @file
 * The Sec. III characterization study as a tool: profile any model in
 * the zoo for one step and print its tensor population — size,
 * lifetime, and main-memory access distributions, the hot/cold byte
 * split, and the page-level false-sharing comparison.
 *
 *   $ ./characterize [model] [batch]
 */

#include <cstdio>
#include <string>

#include "common/stats.hh"
#include "core/runtime.hh"
#include "harness/args.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, {}, /*operands=*/2);
    const std::string model = args.operand(0, "resnet32");
    const int batch = args.operand(1, "").empty()
                          ? models::modelSpec(model).small_batch
                          : args.operandInt(1, "batch", 0, 1);

    df::Graph g = models::makeModel(model, batch);
    std::printf("== %s, batch %d ==\n", model.c_str(), batch);
    std::printf("layers %d, ops %zu, tensors %zu, peak memory %s\n\n",
                g.numLayers(), g.numOps(), g.numTensors(),
                formatBytes(static_cast<double>(g.peakMemoryBytes()))
                    .c_str());

    // --- Observation 1: lifetime/size population -----------------------
    std::size_t n_short = 0;
    std::size_t n_small_short = 0;
    Histogram lifetimes({ 1, 2, 8, 32 });
    for (const auto &t : g.tensors()) {
        lifetimes.add(t.lifetimeLayers(), static_cast<double>(t.bytes));
        if (t.shortLived()) {
            ++n_short;
            if (t.small())
                ++n_small_short;
        }
    }
    std::printf("Observation 1 — lifetime (layers): tensors / bytes\n");
    for (std::size_t i = 0; i < lifetimes.numBuckets(); ++i) {
        std::printf("  %-10s %6llu  %10s\n",
                    lifetimes.bucketLabel(i).c_str(),
                    static_cast<unsigned long long>(
                        lifetimes.bucketCount(i)),
                    formatBytes(lifetimes.bucketWeight(i)).c_str());
    }
    std::printf("  short-lived: %.1f%% of tensors; %.1f%% of those are "
                "sub-page\n\n",
                100.0 * static_cast<double>(n_short) /
                    static_cast<double>(g.numTensors()),
                100.0 * static_cast<double>(n_small_short) /
                    static_cast<double>(n_short));

    // --- Observation 2: main-memory access distribution -----------------
    auto cfg = core::RuntimeConfig::optane(1ull << 30);
    prof::Profiler profiler(cfg.profiler);
    mem::HeterogeneousMemory hm(cfg.tierChain(), cfg.linkChain());
    auto profile = profiler.profile(g, hm, cfg.exec);

    Histogram hotness({ 1, 10, 100 });
    for (const auto &tp : profile.db.tensors())
        hotness.add(tp.accesses_per_page,
                    static_cast<double>(tp.bytes));
    std::printf("Observation 2 — main-memory accesses per page: "
                "tensors / bytes\n");
    for (std::size_t i = 0; i < hotness.numBuckets(); ++i) {
        std::printf("  %-10s %6llu  %10s  (%.2f%% of bytes)\n",
                    hotness.bucketLabel(i).c_str(),
                    static_cast<unsigned long long>(
                        hotness.bucketCount(i)),
                    formatBytes(hotness.bucketWeight(i)).c_str(),
                    100.0 * hotness.bucketWeight(i) /
                        hotness.totalWeight());
    }

    // --- Observation 3: page-level vs tensor-level profiling -------------
    mem::HeterogeneousMemory hm2(cfg.tierChain(), cfg.linkChain());
    auto pages = profiler.profilePageLevel(g, hm2, cfg.exec);
    Histogram page_hot({ 1, 10, 100 });
    for (const auto &pe : pages)
        page_hot.add(static_cast<double>(pe.accesses),
                     static_cast<double>(mem::kPageSize));
    std::printf("\nObservation 3 — coldest bucket (<=10 accesses): "
                "%s at tensor level vs %s at\npage level: %s of cold "
                "bytes look hot under page-level profiling (false "
                "sharing).\n",
                formatBytes(hotness.bucketWeight(0) +
                            hotness.bucketWeight(1))
                    .c_str(),
                formatBytes(page_hot.bucketWeight(0) +
                            page_hot.bucketWeight(1))
                    .c_str(),
                formatBytes((hotness.bucketWeight(0) +
                             hotness.bucketWeight(1)) -
                            (page_hot.bucketWeight(0) +
                             page_hot.bucketWeight(1)))
                    .c_str());

    std::printf("\nProfiling cost: %.1fx step slowdown, %.2f%% memory "
                "overhead, %llu faults.\n",
                profile.profilingSlowdown(),
                100.0 * profile.memoryOverhead(),
                static_cast<unsigned long long>(
                    profile.profiling_step.fault_overhead /
                    (2 * kUsec)));
    return 0;
} catch (...) {
    return harness::reportError();
}
