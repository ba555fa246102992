/**
 * @file
 * The Sec. III characterization study (Observations 1-3, Figs. 1-2).
 *
 * For each model:
 *  - Observation 1: counts of small / short-lived tensors;
 *  - Observation 2: tensors and bytes per access-count bucket
 *    (<=10 / (10,100] / >100 main-memory accesses);
 *  - Observation 3: page-level false sharing — the total size of
 *    "coldest bucket" objects under tensor-level vs page-level
 *    profiling (the paper's 908 MB vs 764 MB comparison shape).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "mem/hm.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, {}, /*operands=*/1);
    bench::banner("Tensor characterization (Observations 1-3)",
                  "Sec. III, Figs. 1-2");

    Table obs1("Observation 1: small, short-lived tensors",
               { "model", "tensors", "short-lived", "% short",
                 "small-of-short %", "peak short-lived", "% of peak" });
    Table obs2("Observation 2: hot/cold skew (tensor-level profiling)",
               { "model", "<=10 acc (count/bytes)",
                 "(10,100] acc (count/bytes)", ">100 acc (count/bytes)",
                 ">100 bytes % of total" });
    Table obs3("Observation 3: page-level false sharing",
               { "model", "coldest-bucket bytes (tensor-level)",
                 "coldest-bucket bytes (page-level)",
                 "bytes mis-attributed by page profiling" });

    for (const auto &name : bench::selectModels(args)) {
        const models::ModelSpec &spec = models::modelSpec(name);
        df::Graph g = models::makeModel(spec.name, spec.small_batch);

        // --- Observation 1 (pure graph properties) -------------------
        std::size_t n_short = 0;
        std::size_t n_small_short = 0;
        for (const auto &t : g.tensors()) {
            if (t.shortLived()) {
                ++n_short;
                if (t.small())
                    ++n_small_short;
            }
        }
        obs1.row()
            .cell(spec.name)
            .cell(static_cast<std::uint64_t>(g.numTensors()))
            .cell(static_cast<std::uint64_t>(n_short))
            .cell(100.0 * static_cast<double>(n_short) /
                      static_cast<double>(g.numTensors()),
                  1)
            .cell(100.0 * static_cast<double>(n_small_short) /
                      static_cast<double>(n_short),
                  1)
            .cell(formatBytes(
                static_cast<double>(g.peakShortLivedBytes())))
            .cell(100.0 * static_cast<double>(g.peakShortLivedBytes()) /
                      static_cast<double>(g.peakMemoryBytes()),
                  1);

        // --- Observations 2 & 3 (one profiling step) ------------------
        auto cfg = core::RuntimeConfig::optane(1ull << 30);
        prof::Profiler profiler(cfg.profiler);

        mem::HeterogeneousMemory hm1(cfg.tierChain(), cfg.linkChain());
        auto profile = profiler.profile(g, hm1, cfg.exec);

        Histogram tensor_hist({ 10, 100 });
        for (const auto &tp : profile.db.tensors())
            tensor_hist.add(tp.accesses_per_page,
                            static_cast<double>(tp.bytes));
        obs2.row()
            .cell(spec.name)
            .cell(strprintf("%llu / %s",
                            static_cast<unsigned long long>(
                                tensor_hist.bucketCount(0)),
                            formatBytes(tensor_hist.bucketWeight(0))
                                .c_str()))
            .cell(strprintf("%llu / %s",
                            static_cast<unsigned long long>(
                                tensor_hist.bucketCount(1)),
                            formatBytes(tensor_hist.bucketWeight(1))
                                .c_str()))
            .cell(strprintf("%llu / %s",
                            static_cast<unsigned long long>(
                                tensor_hist.bucketCount(2)),
                            formatBytes(tensor_hist.bucketWeight(2))
                                .c_str()))
            .cell(100.0 * tensor_hist.bucketWeight(2) /
                      tensor_hist.totalWeight(),
                  2);

        mem::HeterogeneousMemory hm2(cfg.tierChain(), cfg.linkChain());
        auto pages = profiler.profilePageLevel(g, hm2, cfg.exec);
        Histogram page_hist({ 10, 100 });
        for (const auto &pe : pages)
            page_hist.add(static_cast<double>(pe.accesses),
                          static_cast<double>(mem::kPageSize));

        double cold_tensor = tensor_hist.bucketWeight(0);
        double cold_page = page_hist.bucketWeight(0);
        obs3.row()
            .cell(spec.name)
            .cell(formatBytes(cold_tensor))
            .cell(formatBytes(cold_page))
            .cell(formatBytes(cold_tensor - cold_page));
    }

    obs1.printWithCsv(std::cout);
    obs2.printWithCsv(std::cout);
    obs3.printWithCsv(std::cout);

    std::cout
        << "\nPaper anchors (ResNet-32): 92% of tensors short-lived, 98% "
           "of those small;\ncold tensors (<=10 accesses) are most bytes "
           "while >100-access tensors are a tiny\nslice; page-level "
           "profiling under-reports cold bytes (908 MB vs 764 MB) "
           "because\ncold tensors share pages with hotter ones "
           "(Sec. III-B).\n";
    return 0;
} catch (...) {
    return harness::reportError();
}
