#include "harness/bucketed.hh"

#include "common/logging.hh"

namespace sentinel::harness {

BucketedRuntime::BucketedRuntime(std::function<df::Graph(int)> make_graph,
                                 core::RuntimeConfig cfg, int max_buckets)
    : make_graph_(std::move(make_graph)), cfg_(std::move(cfg)),
      max_buckets_(max_buckets)
{
    SENTINEL_ASSERT(max_buckets_ >= 1, "need at least one bucket");
}

Cell &
BucketedRuntime::bucket(int key)
{
    auto it = buckets_.find(key);
    if (it == buckets_.end()) {
        // The paper bounds profiling overhead by bucketizing into at
        // most ~10 buckets; exceeding that means the bucketization is
        // wrong (user error), not a runtime bug.
        if (static_cast<int>(buckets_.size()) >= max_buckets_) {
            SENTINEL_FATAL("bucket %d would exceed the %d-bucket limit; "
                           "coarsen the input-size bucketization",
                           key, max_buckets_);
        }
        // One profiling step for the new bucket.
        auto cell = std::make_unique<Cell>(make_graph_(key), cfg_,
                                           "sentinel");
        ++profiling_steps_;
        it = buckets_.emplace(key, std::move(cell)).first;
    }
    return *it->second;
}

df::StepStats
BucketedRuntime::step(int key)
{
    return bucket(key).executor().runStep();
}

} // namespace sentinel::harness
