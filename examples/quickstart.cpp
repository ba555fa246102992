/**
 * @file
 * Quickstart: train ResNet-32 under Sentinel on an Optane-style
 * heterogeneous memory system with fast memory at 20% of the model's
 * peak consumption — the paper's headline configuration.
 *
 *   $ ./quickstart [model] [batch]
 */

#include <cstdio>
#include <string>

#include "harness/args.hh"
#include "harness/cell.hh"
#include "models/registry.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, {}, /*operands=*/2);
    const std::string model = args.operand(0, "resnet32");
    const int batch = args.operandInt(1, "batch", 32, 1);

    // 1. Build the training-step graph (the stand-in for a TensorFlow
    //    model annotated with start_profile()/add_layer()).
    df::Graph graph = models::makeModel(model, batch);
    std::uint64_t peak = graph.peakMemoryBytes();
    std::uint64_t fast = mem::roundUpToPages(peak / 5);
    std::printf("%s, batch %d: peak memory %.1f MB, fast tier %.1f MB "
                "(20%%)\n",
                model.c_str(), batch, static_cast<double>(peak) / 1e6,
                static_cast<double>(fast) / 1e6);

    // 2. Assemble the run on the DDR4 + Optane preset.  This is the
    //    profiling phase too: one instrumented training step, on a
    //    scratch memory system, that Sentinel then plans from.
    harness::Cell cell(std::move(graph), core::RuntimeConfig::optane(fast),
                       "sentinel");
    const prof::ProfileResult &profile = *cell.profile();
    std::printf("profiling: step extended %.1fx, memory overhead "
                "%.2f%%, RS = %.1f MB\n",
                profile.profilingSlowdown(),
                100.0 * profile.memoryOverhead(),
                static_cast<double>(profile.db.shortLivedPeakBytes()) /
                    1e6);

    // 3. Train.  The first steps include Sentinel's test-and-trial.
    auto stats = cell.executor().run(10);
    const core::SentinelPolicy &policy = *cell.sentinel();
    std::printf("plan: MIL = %d, reserved pool = %.1f MB, "
                "test-and-trial steps = %d\n",
                policy.migrationPlan().mil,
                static_cast<double>(policy.reservedPoolBytes()) / 1e6,
                policy.trialStepsUsed());

    for (const auto &s : stats) {
        std::printf("step %2d: %8.2f ms  (exposed migration %6.2f ms, "
                    "migrated %6.1f MB, %5.1f%% of traffic from slow "
                    "memory)\n",
                    s.step, toMillis(s.step_time),
                    toMillis(s.exposed_migration),
                    static_cast<double>(s.promoted_bytes +
                                        s.demoted_bytes) /
                        1e6,
                    100.0 * static_cast<double>(s.bytes_slow) /
                        static_cast<double>(s.bytes_fast +
                                            s.bytes_slow));
    }

    double steady = toMillis(stats.back().step_time);
    std::printf("\nsteady state: %.2f ms/step, %.1f samples/s\n", steady,
                batch / (steady / 1e3));
    return 0;
} catch (...) {
    return harness::reportError();
}
