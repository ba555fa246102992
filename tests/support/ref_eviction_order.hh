/**
 * @file
 * The demand-eviction victim order SentinelPolicy::evictForSpace() must
 * walk, built as a list, for tests.
 *
 * evictionCandidates() walks the demotion schedule backward from the
 * current layer, wrapping modulo the layer count, and lists every
 * allocated tensor once, minus the protected ones: those still queued
 * for prefetch and those on the current interval's prefetch list.
 * evictForSpace() visits the same order in place and stops once it
 * has reclaimed enough.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_EVICTION_ORDER_HH
#define SENTINEL_TESTS_SUPPORT_REF_EVICTION_ORDER_HH

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"

namespace sentinel::core {

/** Reads the SentinelPolicy state the oracle needs. */
class SentinelTestPeer
{
  public:
    static int
    currentLayer(const SentinelPolicy &policy)
    {
        return policy.current_layer_;
    }
};

} // namespace sentinel::core

namespace sentinel::testing {

/** Victim order of @p policy's demand eviction at its current layer. */
inline std::vector<df::TensorId>
evictionCandidates(const core::SentinelPolicy &policy,
                   const df::Executor &ex)
{
    const core::MigrationPlan &plan = policy.migrationPlan();
    const int L = static_cast<int>(plan.demote_at_layer.size());
    const int current = core::SentinelTestPeer::currentLayer(policy);

    // The backward scan wraps, so "layers behind us" includes layers
    // ahead in this step, whose demote point passed in the previous
    // one.  Their tensors are idle until next use, except those the
    // upcoming interval is being loaded with right now.
    const std::vector<df::TensorId> queued = policy.pendingPrefetch();
    std::unordered_set<df::TensorId> protect(queued.begin(), queued.end());
    if (!plan.prefetch_at.empty()) {
        const int interval = plan.intervalOfLayer(current);
        for (df::TensorId id :
             plan.prefetch_at[static_cast<std::size_t>(interval)])
            protect.insert(id);
    }

    std::vector<df::TensorId> out;
    std::unordered_set<df::TensorId> seen;
    for (int d = 1; d <= L; ++d) {
        const int l = (current - d + L) % L;
        for (df::TensorId id :
             plan.demote_at_layer[static_cast<std::size_t>(l)]) {
            if (protect.count(id) || seen.count(id) || !ex.isAllocated(id))
                continue;
            seen.insert(id);
            out.push_back(id);
        }
    }
    return out;
}

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_EVICTION_ORDER_HH
