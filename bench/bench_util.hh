/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every binary prints (a) a human-readable table matching the paper's
 * rows/series and (b) the same data as CSV, so plots can be
 * regenerated offline.  Each takes a model operand only where it runs or
 * filters by one, and --jobs N only where its cells go through
 * runSweep() or maxBatchSearch().
 */

#ifndef SENTINEL_BENCH_BENCH_UTIL_HH
#define SENTINEL_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness/args.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"

namespace sentinel::bench {

/** The five evaluation models, in the paper's presentation order. */
inline std::vector<std::string>
evaluationModels()
{
    return { "resnet32", "resnet200", "bert_large",
             "lstm",     "mobilenet", "dcgan" };
}

/** The models a bench runs: @p models, or the one of them its model
 *  operand names (ConfigError when it names none). */
inline std::vector<std::string>
selectModels(const harness::Args &args,
             const std::vector<std::string> &models = evaluationModels())
{
    const std::string only = args.operand(0, "");
    if (only.empty())
        return models;
    if (std::find(models.begin(), models.end(), only) == models.end())
        throw harness::ConfigError(
            strprintf("config: unknown model '%s'", only.c_str()));
    return { only };
}

/** The one model a bench runs: its model operand, which must have a
 *  spec (models::findModelSpec()), or @p dflt. */
inline std::string
modelOperand(const harness::Args &args, const std::string &dflt)
{
    const std::string model = args.operand(0, dflt);
    if (!models::findModelSpec(model))
        throw harness::ConfigError(
            strprintf("config: unknown model '%s'", model.c_str()));
    return model;
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
