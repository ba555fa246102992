/**
 * @file
 * Table V: maximum trainable batch size on the GPU platform, given a
 * fixed device memory budget, for plain TensorFlow (no migration),
 * vDNN, AutoTM, SwapAdvisor, Capuchin, and Sentinel-GPU.
 *
 * Paper anchors: Sentinel-GPU reaches 4.18x TensorFlow's batch on
 * average and 1.9x vDNN's (CNNs only); AutoTM, Capuchin and Sentinel
 * are comparable; SwapAdvisor trails Sentinel slightly (1.1x).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, { "jobs" }, /*operands=*/1);
    const int jobs = args.getInt("jobs", 1, 1);
    bench::banner("Table V - maximum batch size on the GPU platform",
                  "Table V, Sec. VII-C");

    // Device memory sized per model so searches stay tractable: half
    // of the small-batch peak (the paper fixes 16 GB for all models;
    // the ratio between policies is what Table V compares).
    Table t("Table V: max batch size (device memory = 50% of "
            "small-batch peak)",
            { "model", "device mem", "TF", "vDNN", "AutoTM",
              "SwapAdvisor", "Capuchin", "Sentinel",
              "Sentinel/TF" });

    for (const auto &model : bench::selectModels(args)) {
        const auto &spec = models::modelSpec(model);
        df::Graph probe = models::makeModel(model, spec.small_batch);
        std::uint64_t dev =
            mem::roundUpToPages(probe.peakMemoryBytes() / 2);

        // --jobs parallelizes each search's power-of-two probe ladder;
        // the refinement phase stays sequential (and so does the
        // answer).
        const int cap = spec.small_batch * 8;
        auto search = [&](const char *policy) {
            return harness::maxBatchSearch(model, policy, dev, cap, jobs);
        };
        int tf = search("tf");
        int vdnn = spec.has_convs ? search("vdnn") : -1;
        int autotm = search("autotm");
        int advisor = search("swapadvisor");
        int capuchin = search("capuchin");
        int sentinel = search("sentinel");

        t.row()
            .cell(model)
            .cell(formatBytes(static_cast<double>(dev)))
            .cell(tf)
            .cell(vdnn < 0 ? std::string("X (unsupported)")
                           : std::to_string(vdnn))
            .cell(autotm)
            .cell(advisor)
            .cell(capuchin)
            .cell(sentinel)
            .cell(tf > 0 ? static_cast<double>(sentinel) / tf : 0.0, 2);
    }
    t.printWithCsv(std::cout);

    std::cout << "\n'X' marks vDNN on recursive structures (LSTM, "
                 "BERT), which it cannot schedule\n(Sec. VII-C).\n";
    return 0;
} catch (...) {
    return harness::reportError();
}
