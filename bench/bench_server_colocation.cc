/**
 * @file
 * Multi-job server: co-location depth sweep on one simulated HM node.
 *
 * Not a paper figure — this exercises the multi-job server extension
 * (src/server): N trainings share one node's fast tier under capacity
 * quotas, FIFO admission, and the global migration-bandwidth arbiter.
 *
 * The sweep admits a fixed mixed job set one job at a time (depth 1 =
 * the first job alone, depth 4 = all four co-located) and reports each
 * tenant's SLO against its own solo baseline: p50/p99 step time, queue
 * wait, bandwidth-throttle time, and slowdown.  Per-job *traffic* is
 * bit-identical to solo at every depth by construction — the numbers
 * below isolate what co-location costs in pure timing.
 */

#include <iostream>

#include "bench_util.hh"
#include "server/oracle.hh"

using namespace sentinel;

int
main(int argc, char **argv)
try {
    const harness::Args args(argc, argv, { "jobs" });
    bench::banner("server co-location - quota + bandwidth sharing",
                  "multi-job extension of Sec. III-B/IV-C");

    server::ServerConfig cfg;
    cfg.fast_bytes = 64ull << 20;
    cfg.default_steps = 8;
    cfg.default_warmup = 3;
    cfg.jobs = args.getInt("jobs", 1, 1);

    // Two migrating CIFAR ResNets plus two resident synthetics: enough
    // tension on the promote channel to show arbitration without
    // making the solo phase expensive.
    std::vector<server::JobSpec> mix = server::JobSpec::parseList(
        "model=resnet32 quota=0.3 prio=2;"
        "model=resnet20 quota=0.25;"
        "model=synthetic:9 quota=0.2;"
        "model=synthetic:123 quota=0.2 arrival-ms=1");

    double solo_sum_ms = 0.0;
    for (std::size_t depth = 1; depth <= mix.size(); ++depth) {
        std::vector<server::JobSpec> specs(mix.begin(),
                                           mix.begin() + depth);
        server::ServerResult r = server::runServer(cfg, specs);

        Table t(strprintf("depth %zu: %zu job(s) on a %.0f MB node",
                          depth, depth,
                          static_cast<double>(cfg.fast_bytes) / 1e6),
                { "job", "status", "queue (ms)", "p50 (ms)", "p99 (ms)",
                  "throttle (ms)", "slowdown" });
        for (const auto &j : r.jobs) {
            t.row().cell(j.spec.name).cell(
                server::jobStatusName(j.status));
            if (j.status == server::JobStatus::Completed)
                t.cell(j.slo.queue_wait_ms, 2)
                    .cell(j.slo.step_ms.p50, 2)
                    .cell(j.slo.step_ms.p99, 2)
                    .cell(j.slo.throttle_ms, 2)
                    .cell(j.slo.slowdown, 3);
            else
                t.cell("-").cell("-").cell("-").cell("-").cell("-");
        }
        t.printWithCsv(std::cout);

        if (depth == 1 && !r.jobs.empty())
            solo_sum_ms = toMillis(r.makespan);
        std::cout << strprintf(
            "depth %zu: makespan %.2f ms, aggregate %.1f samples/s, "
            "node DMA %.1f MB promoted / %.1f MB demoted, peak "
            "committed %.1f MB\n\n",
            depth, toMillis(r.makespan), r.aggregate_throughput,
            static_cast<double>(r.promoted_bytes) / 1e6,
            static_cast<double>(r.demoted_bytes) / 1e6,
            static_cast<double>(r.peak_committed) / 1e6);
    }

    // Serial reference: the same four jobs one after another (nothing
    // shared) — the gap to depth 4's makespan is what co-location buys.
    double serial_ms = 0.0;
    for (const auto &spec : mix) {
        server::ServerResult r = server::runServer(cfg, { spec });
        serial_ms += toMillis(r.makespan);
    }
    std::cout << strprintf(
        "serial (one job at a time): %.2f ms total; first job alone "
        "took %.2f ms\n",
        serial_ms, solo_sum_ms);
    return 0;
} catch (...) {
    return harness::reportError();
}
