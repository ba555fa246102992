/**
 * @file
 * Table I: qualitative comparison of HM management solutions.
 *
 * The paper's feature matrix.  Static by nature; printed here so the
 * reproduction's bench suite covers every table, and cross-checked
 * against which mechanisms the implementations actually contain.
 */

#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
try {
    using sentinel::Table;
    const sentinel::harness::Args args(argc, argv);
    sentinel::bench::banner("Table I - feature comparison",
                            "Table I, Sec. II");

    Table t("Table I: memory-management solutions for DNN training on HM",
            { "solution", "dynamic profiling", "min fast-mem usage",
              "graph agnostic", "counts mem accesses",
              "avoids false sharing", "platform" });
    auto row = [&t](const char *n, const char *a, const char *b,
                    const char *c, const char *d, const char *e,
                    const char *f) {
        t.row().cell(n).cell(a).cell(b).cell(c).cell(d).cell(e).cell(f);
    };
    row("vDNN [6]", "no", "no (conv inputs only)", "no", "no", "no",
        "GPU");
    row("AutoTM [7]", "no (static)", "yes", "yes", "no", "no",
        "CPU+GPU");
    row("SwapAdvisor [8]", "yes (slow GA)", "no", "yes", "no", "no",
        "GPU");
    row("Capuchin [9]", "yes", "yes", "yes", "no", "no", "GPU");
    row("IAL [19]", "yes (page level)", "no", "yes", "page level only",
        "no", "CPU");
    row("Memory Mode", "hardware cache", "no", "yes", "no", "no",
        "CPU");
    row("Sentinel (this repo)", "yes (1 step)", "yes", "yes",
        "yes (tensor level)", "yes", "CPU+GPU");
    t.printWithCsv(std::cout);
    return 0;
} catch (...) {
    return sentinel::harness::reportError();
}
