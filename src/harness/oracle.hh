/**
 * @file
 * The cross-policy differential oracle and the fuzz-case machinery on
 * top of it.
 *
 * One oracle run takes a single training-step graph and pushes it
 * through the full policy matrix (cpuPolicies() on Optane, gpuPolicies()
 * on the GPU platform), each cell fully instrumented (telemetry session
 * + attribution engine + audit log), and checks the invariants that
 * must hold for *any* structurally valid workload:
 *
 *  - capacity:     every chain tier's occupancy <= its configured
 *                  capacity at every step (fast-only excepted — its
 *                  tier is oversized by design when unsized);
 *  - link-conservation: migrated bytes summed over the per-link
 *                  attribution slots equal the StepStats totals — a
 *                  staged (multi-leg) migration charges each leg to
 *                  exactly one link, nothing double counted or lost;
 *  - traffic:      total access traffic (fast + slow bytes) is
 *                  policy-invariant — policies move data, they don't
 *                  change what the model touches;
 *  - residency:    no op reads a non-resident page (the executor's
 *                  internal checks surface as internal-panic
 *                  violations);
 *  - attribution:  every step's component decomposition sums exactly
 *                  to its StepStats totals, and agrees with the event
 *                  stream;
 *  - audit-join:   every Promotion/Demotion event has a matching
 *                  decision record (sentinel cells);
 *  - determinism:  instrumented serial metrics == plain parallel
 *                  (runSweep) metrics, field for field.
 *
 * FuzzCase is one randomized workload (a synthetic:<seed> model plus
 * harness knobs), serializable to the `.sentinelrepro` format that the
 * corpus, the sentinel-cli `replay` subcommand, and the shrinker all
 * share.
 */

#ifndef SENTINEL_HARNESS_ORACLE_HH
#define SENTINEL_HARNESS_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace sentinel::harness {

struct OracleOptions {
    /** Worker threads for the cell matrix (cells are independent). */
    int jobs = 1;

    bool run_cpu = true;
    bool run_gpu = true;

    /**
     * Re-run the whole matrix without instrumentation through the
     * parallel sweep and require field-exact metric equality.  Doubles
     * the cost; the committed-seed suites turn it off.
     */
    bool check_determinism = true;

    // --- Test-only chaos hooks (shrinker acceptance tests) -------------
    // Both act at *check* time, never on the simulation, so an injected
    // violation is deterministic and cheap to reproduce.

    /** Pretend the fast tier was this fraction smaller than it really
     *  was when checking capacity (0 = off). */
    double inject_capacity_underreport = 0.0;

    /** Skew the observed total traffic of inject_policy cells by this
     *  relative factor before the cross-policy compare (0 = off). */
    double inject_traffic_skew = 0.0;

    /** Which policy's cells the injections above apply to. */
    std::string inject_policy = "sentinel";
};

/** One invariant failure. */
struct OracleViolation {
    std::string invariant; ///< capacity | link-conservation | traffic |
                           ///< attribution-exact | attribution-events |
                           ///< audit-join | determinism |
                           ///< internal-panic | run-error
    std::string policy;
    std::string platform; ///< "cpu" | "gpu"
    std::string detail;
};

/** Outcome of one (platform, policy) cell. */
struct OracleCell {
    std::string policy;
    std::string platform;
    bool supported = true;
    bool feasible = true;
    bool ran = false; ///< produced step stats (checks applied)
    std::uint64_t total_traffic = 0;
    Metrics metrics;
};

struct OracleReport {
    std::vector<OracleViolation> violations;
    std::vector<OracleCell> cells;

    bool ok() const { return violations.empty(); }

    /** Canonical human-readable rendering (stable across runs). */
    std::string summary() const;
};

/**
 * Run @p base through the policy matrix and check every invariant.
 * base.model/batch/steps/warmup/fast_fraction (or fast_bytes) describe
 * the workload; platform and telemetry fields are ignored.  Throws
 * ConfigError when the configuration violates a harness precondition —
 * a *rejected* input, distinct from a violated invariant.
 */
OracleReport runOracle(const ExperimentConfig &base,
                       const OracleOptions &opts = {});

/**
 * One randomized workload: a synthetic model plus the harness knobs
 * the oracle needs.  Serializes to `.sentinelrepro` (versioned
 * key=value lines) — the format of tests/fuzz/corpus/ and of
 * `sentinel-cli replay`.
 */
struct FuzzCase {
    std::string model = "synthetic:1";
    int batch = 4;
    double fast_fraction = 0.2;
    int steps = 6;
    int warmup = 3;
    bool cpu = true;
    bool gpu = false;

    /** Sentinel static-layout solver: "greedy" or "interval" (see
     *  ExperimentConfig::planner).  Corpus entries predating the
     *  planner default to greedy. */
    std::string planner = "greedy";

    /** Memory-tier chain length (see ExperimentConfig::tiers).  Corpus
     *  entries predating the N-tier hierarchy default to the classic
     *  two-tier system. */
    int tiers = 2;

    // Injection knobs (committed corpus entries keep them at 0; the
    // shrinker acceptance tests set them).
    double inject_capacity = 0.0;
    double inject_traffic = 0.0;
    std::string inject_policy = "sentinel";

    /** Largest batch and steps parse() accepts (see parse()). */
    static constexpr int kMaxBatch = 4096;
    static constexpr int kMaxSteps = 10000;

    /** Derive a case from @p seed (deterministic). */
    static FuzzCase random(std::uint64_t seed);

    ExperimentConfig config() const;
    OracleOptions oracleOptions(int jobs, bool check_determinism) const;

    /** Run the oracle on this case. */
    OracleReport run(int jobs = 1, bool check_determinism = true) const;

    std::string serialize() const;
    /** Parse serialized text; throws ConfigError when malformed or
     *  when batch or steps exceed kMaxBatch / kMaxSteps. */
    static FuzzCase parse(const std::string &text);

    void save(const std::string &path) const;
    /** Load @p path; throws ConfigError on I/O or parse failure. */
    static FuzzCase load(const std::string &path);
};

/**
 * Deterministically minimize @p failing while the failure persists:
 * greedy fixpoint over an ordered transform list (halve unit counts,
 * drop branching, shed temporaries, shrink tensors, reduce batch and
 * steps, drop a platform), accepting a candidate only when the oracle
 * still reports a violation of the *same invariant* as the original
 * failure.  @p oracle_runs (optional) counts oracle invocations.
 */
FuzzCase shrink(const FuzzCase &failing, int jobs = 1,
                int *oracle_runs = nullptr);

} // namespace sentinel::harness

#endif // SENTINEL_HARNESS_ORACLE_HH
