/**
 * @file
 * One training run, assembled once: the paper's pipeline of profiling
 * one step, planning from the profile, then training under the plan
 * (Sec. III-IV).
 *
 * A Cell builds, in this order, the model graph, the sized platform
 * (tier chain, migration links, policy knobs), the one-step profile
 * (for the policies that plan from one), the policy, the memory system
 * and the executor.  Callers step executor() themselves:
 *
 *     harness::ExperimentConfig cfg;
 *     cfg.model = "resnet32";
 *     harness::Cell cell(cfg, "sentinel");
 *     auto stats = cell.executor().run(20);
 *
 * Every training run in the tree — runExperiment, the CLI, the benches
 * and examples — goes through this class, so a knob honoured by one
 * honours it everywhere.
 */

#ifndef SENTINEL_HARNESS_CELL_HH
#define SENTINEL_HARNESS_CELL_HH

#include <memory>
#include <optional>
#include <string>

#include "core/runtime.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "dataflow/graph.hh"
#include "harness/experiment.hh"
#include "mem/hm.hh"
#include "profile/profiler.hh"
#include "sim/fault_injector.hh"

namespace sentinel::harness {

/** Check @p cfg's run shape, planner and tier knobs (ConfigError),
 *  then build its model. */
df::Graph buildGraph(const ExperimentConfig &cfg);

/**
 * Throw for what no fast-tier size mends in a cell of @p policy on
 * @p cfg: its knobs and model (buildGraph(), ConfigError), its fault
 * spec (FatalError) and the policy's name (ConfigError).
 */
void checkCell(const ExperimentConfig &cfg, const std::string &policy);

/**
 * The platform @p policy trains @p graph on under @p cfg: the fast
 * and middle tiers sized (fast-only gets a tier that holds
 * everything), the reserved-pool and sub-page checks run
 * (ConfigError), and cfg.sentinel, the platform's GPU mode and
 * cfg.planner folded into the result's `sentinel` options.
 */
core::RuntimeConfig sizePlatform(const ExperimentConfig &cfg,
                                 const std::string &policy,
                                 const df::Graph &graph);

class Cell
{
  public:
    /**
     * Assemble @p policy on @p cfg.  A caller-supplied @p profile
     * replaces the profiling step; it must describe the same graph
     * (else ConfigError) and outlive the cell.  cfg's telemetry,
     * attribution, audit and chaos attach to the training run only.
     */
    Cell(const ExperimentConfig &cfg, const std::string &policy,
         const prof::ProfileDatabase *profile = nullptr);

    /** Assemble @p policy on a caller-built graph and platform. */
    Cell(df::Graph graph, core::RuntimeConfig platform,
         const std::string &policy);

    Cell(const Cell &) = delete;
    Cell &operator=(const Cell &) = delete;

    /** False when the policy cannot run this graph (vDNN on a
     *  recurrent one).  Nothing past the platform is then built, and
     *  policy(), hm() and executor() must not be called. */
    bool supported() const { return executor_.has_value(); }

    const df::Graph &graph() const { return graph_; }
    const core::RuntimeConfig &platform() const { return platform_; }

    /** The profiling step this cell ran; null when the policy plans
     *  from none or the caller supplied the database. */
    const prof::ProfileResult *
    profile() const
    {
        return profile_ ? &*profile_ : nullptr;
    }

    df::MemoryPolicy &policy() { return *policy_; }
    /** The policy as Sentinel, or null when it is another one. */
    core::SentinelPolicy *sentinel() { return sentinel_; }
    mem::HeterogeneousMemory &hm() { return *hm_; }
    df::Executor &executor() { return *executor_; }

  private:
    void build(const std::string &policy,
               const prof::ProfileDatabase *profile);

    df::Graph graph_;
    core::RuntimeConfig platform_;
    std::optional<prof::ProfileResult> profile_;
    std::unique_ptr<df::MemoryPolicy> policy_;
    core::SentinelPolicy *sentinel_ = nullptr;
    std::optional<mem::HeterogeneousMemory> hm_;
    std::optional<sim::FaultInjector> injector_;
    std::optional<df::Executor> executor_;
};

} // namespace sentinel::harness

#endif // SENTINEL_HARNESS_CELL_HH
