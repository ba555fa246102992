/**
 * @file
 * The multi-job differential oracle.
 *
 * The server's central promise is that co-location changes WHEN a job's
 * work happens but never WHAT the job does: per-job migrated bytes and
 * access traffic must be bit-identical to the same job run solo at its
 * quota, and the whole server must be deterministic regardless of how
 * many phase-1 worker threads it uses.  This oracle re-verifies both
 * from the outside:
 *
 *  - server-determinism:  a serial run and a `--jobs N` run produce the
 *                         same summary() text and the same per-job
 *                         step-duration traces, byte for byte;
 *  - job-traffic:         every completed job's per-step promoted /
 *                         demoted / fast / slow bytes, stall counts,
 *                         and solo step times match an independent solo
 *                         re-run of the identical configuration exactly;
 *  - node-conservation:   the node's DMA totals equal the sum of the
 *                         per-job solo migration volumes;
 *  - capacity:            the admission high-water mark never exceeds
 *                         headroom * fast_bytes;
 *  - dilation:            no co-located step is shorter than its solo
 *                         run, and submit <= admit <= finish per job.
 *
 * Violations reuse harness::OracleReport so the fuzzer, the CLI, and
 * the tests render single-job and multi-job failures the same way.
 */

#ifndef SENTINEL_SERVER_ORACLE_HH
#define SENTINEL_SERVER_ORACLE_HH

#include <cstdint>
#include <vector>

#include "harness/oracle.hh"
#include "server/job.hh"
#include "server/server.hh"

namespace sentinel::server {

struct ServerOracleOptions {
    /** Phase-1 thread count of the comparison run (the reference run
     *  is always serial). */
    int jobs = 4;

    /** Run the serial-vs-parallel comparison (the cheap half). */
    bool check_determinism = true;
};

/** Run @p specs through the server and check the invariants above. */
harness::OracleReport runServerOracle(const ServerConfig &cfg,
                                      const std::vector<JobSpec> &specs,
                                      const ServerOracleOptions &opts = {});

/**
 * Deterministically derive a mixed co-location: @p njobs jobs drawn
 * from light zoo models and synthetic:<seed> graphs, with randomized
 * quotas, priorities, staggered arrivals, and an occasional non-default
 * policy.  Quota fractions are drawn from [0.2, 0.45] so 2-4 jobs
 * exercise both concurrent admission and head-of-line queueing.
 */
std::vector<JobSpec> randomColocation(std::uint64_t seed, int njobs);

} // namespace sentinel::server

#endif // SENTINEL_SERVER_ORACLE_HH
