/**
 * @file
 * Chaos recovery: per-step time trajectory under injected faults.
 *
 * Not a paper figure — this exercises the robustness extension: the
 * profile goes stale mid-run (degraded bandwidth, a channel outage,
 * shrunk fast capacity, drifted compute/traffic) and the divergence
 * monitor re-plans against the observed environment.  Each scenario
 * compares four runs:
 *
 *   sentinel          monitor on (default): detect + re-plan
 *   sentinel-frozen   monitor off: keeps trusting the stale plan
 *   ial               reactive baseline (no plan to go stale)
 *   memory-mode       hardware cache baseline
 *
 * The interesting shape: sentinel and sentinel-frozen are identical
 * until the fault lands; afterwards the monitored run converges to the
 * plan a fresh profile of the degraded machine would have produced
 * (tests pin it within 15% of that reference), while a fault mild
 * enough for the stale plan to absorb must leave the monitor quiet and
 * the two runs bit-identical.
 */

#include <iostream>

#include "bench_util.hh"
#include "sim/fault_injector.hh"

using namespace sentinel;

namespace {

struct Scenario {
    const char *name;
    const char *spec;
};

double
stepMs(const harness::StepTrace &tr, int s)
{
    return s < static_cast<int>(tr.steps.size())
               ? toMillis(tr.steps[s].step_time)
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, {}, /*operands=*/1);
    const std::string model = bench::modelOperand(args, "resnet32");
    bench::banner("chaos recovery - re-planning under injected faults",
                  "robustness extension of Sec. IV-D/IV-E");

    // The first two are severe enough to trip the monitor (the plan is
    // unsalvageable); the last two are absorbed by the existing plan —
    // the monitor must stay quiet and match the frozen run exactly.
    const std::vector<Scenario> scenarios = {
        { "bw-degrade", "bw:step=6,factor=0.15" },
        { "bw+shrink", "bw:step=6,factor=0.15;shrink:step=6,factor=0.7" },
        { "stall", "stall:step=6,ms=4" },
        { "drift", "jitter:step=6,amp=0.2;drift:step=6,factor=1.25" },
    };

    harness::ExperimentConfig base;
    base.model = model;
    base.batch = models::modelSpec(model).small_batch;
    base.steps = 16;
    base.warmup = 10;

    for (const auto &sc : scenarios) {
        harness::ExperimentConfig cfg = base;
        cfg.chaos = sc.spec;
        harness::ExperimentConfig frozen = cfg;
        frozen.sentinel.enable_divergence_monitor = false;

        harness::StepTrace sen =
            harness::runExperimentSteps(cfg, "sentinel");
        harness::StepTrace off =
            harness::runExperimentSteps(frozen, "sentinel");
        harness::StepTrace ial =
            harness::runExperimentSteps(cfg, "ial");
        harness::StepTrace mm =
            harness::runExperimentSteps(cfg, "memory-mode");

        Table t(strprintf("%s: --chaos '%s' (%s, batch %d)", sc.name,
                          sc.spec, model.c_str(), base.batch),
                { "step", "sentinel (ms)", "frozen plan (ms)",
                  "ial (ms)", "memory-mode (ms)" });
        for (int s = 0; s < base.steps; ++s) {
            t.row()
                .cell(s)
                .cell(stepMs(sen, s), 2)
                .cell(stepMs(off, s), 2)
                .cell(stepMs(ial, s), 2)
                .cell(stepMs(mm, s), 2);
        }
        t.printWithCsv(std::cout);

        double sen_final = stepMs(sen, base.steps - 1);
        double off_final = stepMs(off, base.steps - 1);
        std::cout << strprintf(
            "%s: divergence=%d replans=%d trial=%s; final step %.2f ms "
            "monitored vs %.2f ms frozen (%.1f%%)\n\n",
            sc.name, sen.metrics.divergence_events, sen.metrics.replans,
            sen.metrics.trial_state.c_str(), sen_final, off_final,
            off_final > 0.0 ? 100.0 * sen_final / off_final : 0.0);
    }
    return 0;
} catch (...) {
    return harness::reportError();
}
