/**
 * @file
 * Table II: the two evaluation platforms, as configured in this
 * reproduction's simulator presets.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"

int
main(int argc, char **argv)
try {
    using namespace sentinel;
    const harness::Args args(argc, argv);
    bench::banner("Table II - evaluation platforms", "Table II, Sec. VII");

    auto cpu = core::RuntimeConfig::optane(192ull << 30);
    auto gpu = core::RuntimeConfig::gpu(16ull << 30);

    Table t("Table II: simulated platform parameters",
            { "platform", "tier", "read BW", "write BW", "read lat",
              "write lat", "migration BW (in/out)", "compute" });
    auto row = [&t](const char *platform, const mem::TierParams &p,
                    const core::RuntimeConfig &cfg) {
        t.row()
            .cell(platform)
            .cell(p.name)
            .cell(strprintf("%.0f GB/s", p.read_bw / 1e9))
            .cell(strprintf("%.0f GB/s", p.write_bw / 1e9))
            .cell(strprintf("%lld ns",
                            static_cast<long long>(p.read_latency)))
            .cell(strprintf("%lld ns",
                            static_cast<long long>(p.write_latency)))
            .cell(strprintf("%.0f / %.0f GB/s",
                            cfg.migration.promote_bw / 1e9,
                            cfg.migration.demote_bw / 1e9))
            .cell(strprintf("%.1f TFLOP/s",
                            cfg.exec.compute_flops / 1e12));
    };
    row("Optane HM (CPU)", cpu.fast, cpu);
    row("Optane HM (CPU)", cpu.slow, cpu);
    row("GPU HM (V100)", gpu.fast, gpu);
    row("GPU HM (V100)", gpu.slow, gpu);
    t.printWithCsv(std::cout);

    std::cout << "\nNotes: the slow tier of the GPU platform is host "
                 "memory as seen from the GPU\n(PCIe-limited), matching "
                 "Sec. V; migration uses two channels that overlap\nwith "
                 "compute, matching the paper's helper threads (Sec. "
                 "VI).\n";
    return 0;
} catch (...) {
    return sentinel::harness::reportError();
}
