/**
 * @file
 * bench_baseline: the perf-regression tripwire behind `ctest -L
 * perf-regress`.
 *
 * Default mode runs a small fixed set of experiment cells and writes
 * every metric to BENCH_baseline.json (one metric per line, so the
 * checker — and a human with grep — can parse it without a JSON
 * library).  The file is committed; EXPERIMENTS.md describes when and
 * how to regenerate it.
 *
 * `--check` re-runs the same cells and compares against the committed
 * baseline.  Two metric classes with different tolerances:
 *
 *  - sim.* metrics come off the simulated clock and are bit-
 *    deterministic, so any change is a real behavior change: each
 *    must print (as %.6f) exactly the committed token, in either
 *    direction.  A change that means to move one regenerates the
 *    baseline and says so.  The exception is allocs_per_step, which
 *    keeps a threshold and slack for amortized container growth.
 *  - wall.* metrics time the simulator itself (min of N runs) and
 *    absorb machine noise with a much larger threshold.  Sanitizer
 *    builds skip them entirely — a 10x ASan slowdown is not a
 *    regression.
 *
 * Improvements of a thresholded metric never fail the check;
 * regenerate the baseline to bank them.
 *
 *   bench_baseline [--check] [--ntier] [--out FILE] [--baseline FILE]
 *
 * --ntier swaps in the three-tier cell set (simulated metrics only),
 * whose files default to BENCH_baseline_ntier.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/alloc_hook.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "harness/args.hh"
#include "harness/cell.hh"
#include "telemetry/session.hh"

using namespace sentinel;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BENCH_SANITIZED 1
#endif
#if !defined(BENCH_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BENCH_SANITIZED 1
#endif
#endif
#ifndef BENCH_SANITIZED
#define BENCH_SANITIZED 0
#endif

namespace {

struct Sample {
    std::string key;
    double value = 0.0;
    /** Bit-deterministic: --check passes only on the committed token. */
    bool exact = true;
    /** Otherwise: allowed relative growth before --check fails, */
    double threshold = 0.0;
    /** plus additive slack so near-zero baselines aren't tripwires. */
    double slack = 0.0;
};

/** A cell's simulated metrics, under keys prefixed by @p p. */
void
addSimMetrics(std::vector<Sample> &out, const std::string &p,
              const harness::Metrics &m)
{
    out.push_back({ p + "step_time_ms", m.step_time_ms });
    out.push_back({ p + "exposed_ms", m.exposed_ms });
    out.push_back({ p + "migrated_mb", m.migrated_mb() });
    out.push_back({ p + "peak_fast_mb", m.peak_fast_mb });
}

harness::ExperimentConfig
cellConfig(const std::string &model)
{
    harness::ExperimentConfig cfg;
    cfg.model = model;
    return cfg; // zoo batch, Optane platform, 9 steps / 6 warmup
}

/** A GPU cell: @p mem_mib MiB of device memory (0 = 20% of peak). */
harness::ExperimentConfig
gpuCellConfig(const std::string &model, int batch, std::uint64_t mem_mib)
{
    harness::ExperimentConfig cfg = cellConfig(model);
    cfg.platform = harness::Platform::Gpu;
    cfg.batch = batch;
    cfg.fast_bytes = mem_mib << 20;
    return cfg;
}

/**
 * Heap allocations per steady-state training step, counted by the
 * sentinel_alloc_hook operator-new replacement around the measured
 * steps of the same cell runExperiment runs (setup and teardown
 * allocations stay outside the counted window).  Returns -1 when the
 * hook is not live (sanitizer builds), and the key is then omitted.
 */
double
measureAllocsPerStep(harness::ExperimentConfig cfg,
                     const std::string &policy)
{
    if (!common::allocHookActive())
        return -1.0;

    // A telemetry session rides along: its per-step feed (event ring,
    // latency histograms, the step-end counter totals) is part of the
    // zero-allocation promise — only exports may allocate, and none
    // happen inside the counted window.
    telemetry::Session session;
    cfg.telemetry = &session;
    harness::Cell cell(cfg, policy);
    df::Executor &ex = cell.executor();

    ex.run(cfg.warmup);

    const int measured = cfg.steps - cfg.warmup;
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < measured; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    return static_cast<double>(after - before) /
           static_cast<double>(measured);
}

/** The cell's keys are sim.<@p name>.<@p policy>.<metric>. */
void
addCell(std::vector<Sample> &out, const std::string &name,
        const harness::ExperimentConfig &cfg, const std::string &policy)
{
    harness::Metrics m = harness::runExperiment(cfg, policy);
    SENTINEL_ASSERT(m.supported, "baseline cell %s/%s unsupported",
                    name.c_str(), policy.c_str());
    std::string p = "sim." + name + "." + policy + ".";
    addSimMetrics(out, p, m);
    // Allocation counts are deterministic in a single-threaded run;
    // the slack absorbs the occasional amortized container growth.
    double allocs = measureAllocsPerStep(cfg, policy);
    if (allocs >= 0.0)
        out.push_back({ p + "allocs_per_step", allocs, false, 0.25, 5.0 });
}

/** Wall time of one full experiment cell, min of @p reps runs. */
void
addWall(std::vector<Sample> &out, const std::string &model,
        const std::string &policy, int reps)
{
    using clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        auto t0 = clock::now();
        harness::ExperimentConfig cfg = cellConfig(model);
        (void)harness::runExperiment(cfg, policy);
        double ms = std::chrono::duration<double, std::milli>(
                        clock::now() - t0)
                        .count();
        best = i == 0 ? ms : std::min(best, ms);
    }
    out.push_back({ "wall." + model + "." + policy + "_ms", best, false,
                    /*threshold=*/1.5, /*slack=*/100.0 });
}

std::vector<Sample>
collect(bool wall)
{
    std::vector<Sample> out;
    addCell(out, "resnet32", cellConfig("resnet32"), "sentinel");
    addCell(out, "resnet32", cellConfig("resnet32"), "ial");
    addCell(out, "mobilenet", cellConfig("mobilenet"), "sentinel");
    // GPU demand paging, and GPU Sentinel under enough pressure that
    // its demand faults evict (dcgan b52 on a 75 MiB device).  The
    // latter runs off-plan, so its divergence monitor re-plans until
    // the budget (core::kMaxReplans, 4) is spent, by step 14; each
    // re-plan allocates in the planner, so the measured steps come
    // after.
    addCell(out, "gpu.resnet32", gpuCellConfig("resnet32", 32, 0), "um");
    harness::ExperimentConfig pressure = gpuCellConfig("dcgan", 52, 75);
    pressure.warmup = 14;
    pressure.steps = 17;
    addCell(out, "gpu.dcgan", pressure, "sentinel");
    if (wall)
        addWall(out, "resnet32", "sentinel", 3);
    return out;
}

/**
 * One three-tier cell, simulated metrics only: the cells are bit-
 * deterministic like the two-tier set, but wall clock and allocation
 * counts add nothing a two-tier cell doesn't already gate, so the
 * N-tier tripwire stays cheap enough for every build flavor.
 */
void
addNtierCell(std::vector<Sample> &out, const std::string &model,
             const std::string &policy)
{
    harness::ExperimentConfig cfg = cellConfig(model);
    cfg.tiers = 3;
    harness::Metrics m = harness::runExperiment(cfg, policy);
    SENTINEL_ASSERT(m.supported, "ntier cell %s/%s unsupported",
                    model.c_str(), policy.c_str());
    addSimMetrics(out, "sim.ntier3." + model + "." + policy + ".", m);
}

std::vector<Sample>
collectNtier()
{
    std::vector<Sample> out;
    addNtierCell(out, "resnet32", "sentinel");
    addNtierCell(out, "llm:tiny", "sentinel");
    return out;
}

void
writeBaseline(const std::vector<Sample> &samples, std::ofstream &os)
{
    os << "{\n";
    os << "  \"schema\": 1,\n";
    os << "  \"sanitized\": " << (BENCH_SANITIZED ? "true" : "false")
       << ",\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        os << "  \"" << samples[i].key << "\": "
           << strprintf("%.6f", samples[i].value)
           << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    os << "}\n";
}

/**
 * Flat `"key": value` lines, each value kept as its token (the text up
 * to a comma or white space); no JSON library needed (or wanted).
 */
std::map<std::string, std::string>
readBaseline(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        SENTINEL_FATAL("could not read baseline '%s' (regenerate with "
                       "bench_baseline --out %s)",
                       path.c_str(), path.c_str());
    std::map<std::string, std::string> out;
    std::string line;
    while (std::getline(is, line)) {
        std::size_t k0 = line.find('"');
        if (k0 == std::string::npos)
            continue;
        std::size_t k1 = line.find('"', k0 + 1);
        std::size_t colon = line.find(':', k1);
        if (k1 == std::string::npos || colon == std::string::npos)
            continue;
        std::size_t v0 = line.find_first_not_of(" \t", colon + 1);
        if (v0 == std::string::npos)
            continue;
        std::size_t v1 = line.find_first_of(", \t\r", v0);
        out[line.substr(k0 + 1, k1 - k0 - 1)] = line.substr(
            v0, v1 == std::string::npos ? std::string::npos : v1 - v0);
    }
    return out;
}

int
check(const std::vector<Sample> &samples,
      const std::map<std::string, std::string> &base, const std::string &path)
{
    int regressions = 0, compared = 0;
    for (const Sample &s : samples) {
        auto it = base.find(s.key);
        if (it == base.end()) {
            std::printf("  %-44s %12.3f  (new metric, no baseline)\n",
                        s.key.c_str(), s.value);
            continue;
        }
        ++compared;
        const std::string &token = it->second;
        // A token that is no number fails the check, never reads as 0.
        const std::optional<double> parsed =
            parseReal(token, -std::numeric_limits<double>::max(),
                      std::numeric_limits<double>::max());
        const double b = parsed.value_or(0.0);
        double limit = b * (1.0 + s.threshold) + s.slack;
        bool regressed =
            !parsed || (s.exact ? strprintf("%.6f", s.value) != token
                                : s.value > limit);
        double delta = b != 0.0 ? 100.0 * (s.value - b) / b : 0.0;
        std::printf("  %-44s %12.3f  base %12.3f  %+7.1f%%  %s\n",
                    s.key.c_str(), s.value, b, delta,
                    !regressed ? "ok" : s.exact ? "CHANGED" : "REGRESSED");
        if (!regressed)
            continue;
        ++regressions;
        if (s.exact)
            std::printf("    %.6f is not the committed %s (exact)\n",
                        s.value, token.c_str());
        else
            std::printf("    limit was %.3f (threshold %.0f%% + slack "
                        "%.2f)\n",
                        limit, 100.0 * s.threshold, s.slack);
    }
    std::printf("%d metrics compared against %s: %d regression%s\n",
                compared, path.c_str(), regressions,
                regressions == 1 ? "" : "s");
    return regressions == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, { "out", "baseline" },
                             /*operands=*/0, { "check", "ntier" });
    const bool do_check = args.has("check");
    const bool ntier = args.has("ntier");
    const std::string def =
        ntier ? "BENCH_baseline_ntier.json" : "BENCH_baseline.json";
    const std::string out = args.get("out", def);
    const std::string baseline = args.get("baseline", def);

    // A check reads its baseline, and a write opens its file, before
    // running any cell.
    std::map<std::string, std::string> base;
    std::ofstream out_os;
    if (do_check)
        base = readBaseline(baseline);
    else
        out_os = args.openOutput("out", def);
    if (BENCH_SANITIZED && !ntier)
        std::printf("sanitizer build: wall-clock metrics skipped\n");
    std::vector<Sample> samples =
        ntier ? collectNtier() : collect(/*wall=*/!BENCH_SANITIZED);

    if (do_check)
        return check(samples, base, baseline);

    writeBaseline(samples, out_os);
    harness::closeOutput(out_os, out);
    std::printf("%zu metrics written to %s\n", samples.size(),
                out.c_str());
    return 0;
} catch (...) {
    return harness::reportError();
}
