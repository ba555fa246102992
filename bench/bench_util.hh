/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every binary prints (a) a human-readable table matching the paper's
 * rows/series and (b) the same data as CSV, so plots can be
 * regenerated offline.
 */

#ifndef SENTINEL_BENCH_BENCH_UTIL_HH
#define SENTINEL_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"

namespace sentinel::bench {

/**
 * Command line shared by the figure/table binaries: an optional
 * positional model filter plus --jobs N to fan the experiment cells
 * out over a worker pool (results are identical for any jobs value).
 */
struct BenchArgs {
    std::string only; ///< run a single model (empty = all)
    int jobs = 1;
};

/** Print @p why and the shared usage line, then exit 2. */
[[noreturn]] inline void
usageError(const char *prog, const std::string &why)
{
    std::cerr << "error: " << why << "\nusage: " << prog
              << " [model] [--jobs N]\n";
    std::exit(2);
}

/**
 * Parse the shared command line.  --jobs must be a whole integer >= 1,
 * any other dash-prefixed argument is an error, and at most one model
 * filter may be given; when @p models is non-empty the filter must be
 * one of them.  A usage error exits 2.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv,
               const std::vector<std::string> &models = {})
{
    BenchArgs args;
    auto parseJobs = [&](const std::string &v) {
        const std::optional<int> n =
            parseInt(v, 1, std::numeric_limits<int>::max());
        if (!n)
            usageError(argv[0], "--jobs takes an integer >= 1, got '" +
                                    v + "'");
        args.jobs = *n;
    };
    for (int i = 1; i < argc; ++i) {
        std::string s = argv[i];
        if (s.rfind("--jobs=", 0) == 0)
            parseJobs(s.substr(7));
        else if (s == "--jobs")
            parseJobs(i + 1 < argc ? argv[++i] : "");
        else if (s.rfind('-', 0) == 0)
            usageError(argv[0], "unknown option '" + s + "'");
        else if (!args.only.empty())
            usageError(argv[0], "more than one model filter ('" +
                                    args.only + "', '" + s + "')");
        else
            args.only = s;
    }
    if (!args.only.empty() && !models.empty() &&
        std::find(models.begin(), models.end(), args.only) == models.end())
        usageError(argv[0], "unknown model '" + args.only + "'");
    return args;
}

/** The five evaluation models, in the paper's presentation order. */
inline std::vector<std::string>
evaluationModels()
{
    return { "resnet32", "resnet200", "bert_large",
             "lstm",     "mobilenet", "dcgan" };
}

inline double
speedupOver(double baseline_ms, double policy_ms)
{
    return policy_ms > 0.0 ? baseline_ms / policy_ms : 0.0;
}

inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "\n=================================================="
              << "\n Sentinel reproduction - " << what << "\n (paper: "
              << paper_ref << ")"
              << "\n==================================================\n";
}

} // namespace sentinel::bench

#endif // SENTINEL_BENCH_BENCH_UTIL_HH
