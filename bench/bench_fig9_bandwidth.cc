/**
 * @file
 * Fig. 9: fast- and slow-memory access bandwidth over one training
 * step of ResNet-32, IAL vs Sentinel.
 *
 * The paper's shape: Sentinel drives much more fast-memory bandwidth
 * (7.3x on average) and less slow-memory bandwidth than IAL, because
 * its prefetching moves the hot working set into DRAM before use.
 */

#include <iostream>

#include "bench_util.hh"
#include "harness/cell.hh"
#include "sim/trace.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/session.hh"

using namespace sentinel;

namespace {

struct TraceResult {
    std::vector<double> fast;
    std::vector<double> slow;
    double avg_fast = 0.0;
    double avg_slow = 0.0;
};

TraceResult
traceOnePolicy(const df::Graph &graph, const core::RuntimeConfig &cfg,
               const std::string &policy, Tick bucket)
{
    harness::Cell cell(graph, cfg, policy);
    df::Executor &ex = cell.executor();
    ex.run(6); // reach steady state

    sim::TraceRecorder trace(bucket);
    ex.setTraceRecorder(&trace);
    ex.runStep();

    TraceResult r;
    r.fast = trace.bandwidthSeries("fast");
    r.slow = trace.bandwidthSeries("slow");
    for (double v : r.fast)
        r.avg_fast += v;
    for (double v : r.slow)
        r.avg_slow += v;
    if (!r.fast.empty()) {
        r.avg_fast /= static_cast<double>(r.fast.size());
        r.avg_slow /= static_cast<double>(r.slow.size());
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model = argc > 1 ? argv[1] : "resnet32";
    bench::banner("Fig. 9 - memory bandwidth during one step",
                  "Fig. 9, Sec. VII-B");

    df::Graph graph =
        models::makeModel(model, models::modelSpec(model).small_batch);
    std::uint64_t fast =
        mem::roundUpToPages(graph.peakMemoryBytes() / 5);
    auto cfg = core::RuntimeConfig::optane(fast);

    const Tick bucket = 2 * kMsec;
    TraceResult ial_r = traceOnePolicy(graph, cfg, "ial", bucket);
    TraceResult sen_r = traceOnePolicy(graph, cfg, "sentinel", bucket);

    Table t("Fig. 9: access bandwidth per 2 ms window (" + model + ")",
            { "window", "IAL fast (GB/s)", "IAL slow (GB/s)",
              "Sentinel fast (GB/s)", "Sentinel slow (GB/s)" });
    std::size_t windows =
        std::max(ial_r.fast.size(), sen_r.fast.size());
    auto at = [](const std::vector<double> &v, std::size_t i) {
        return i < v.size() ? v[i] / 1e9 : 0.0;
    };
    for (std::size_t i = 0; i < windows; ++i) {
        t.row()
            .cell(static_cast<std::uint64_t>(i))
            .cell(at(ial_r.fast, i), 2)
            .cell(at(ial_r.slow, i), 2)
            .cell(at(sen_r.fast, i), 2)
            .cell(at(sen_r.slow, i), 2);
    }
    t.printWithCsv(std::cout);

    double fast_ratio =
        ial_r.avg_fast > 0 ? sen_r.avg_fast / ial_r.avg_fast : 0.0;
    std::cout << strprintf(
        "\nAverage fast-memory bandwidth: Sentinel %.2f GB/s vs IAL "
        "%.2f GB/s (%.1fx);\naverage slow-memory bandwidth: Sentinel "
        "%.2f GB/s vs IAL %.2f GB/s.\nPaper anchors: Sentinel uses "
        "7.3x more fast-memory bandwidth and less slow\nbandwidth than "
        "IAL (Fig. 9).\n",
        sen_r.avg_fast / 1e9, ial_r.avg_fast / 1e9, fast_ratio,
        sen_r.avg_slow / 1e9, ial_r.avg_slow / 1e9);

    // Optional second argument: dump the same steady-state Sentinel
    // step as a Chrome-trace JSON (op/migration/stall timeline, the
    // event-level view behind this figure's bucketed series).
    if (argc > 2) {
        telemetry::Session session;
        harness::Cell cell(std::move(graph), cfg, "sentinel");
        cell.sentinel()->setTelemetry(&session);
        cell.hm().setTelemetry(&session);
        cell.executor().setTelemetry(&session);
        cell.executor().run(7);
        if (telemetry::saveChromeTrace(session.events(), argv[2])) {
            std::cout << strprintf(
                "\nChrome trace of %d steady steps written to %s "
                "(%zu events)\n", 7, argv[2], session.events().size());
        } else {
            std::cout << strprintf("\ncould not write %s\n", argv[2]);
            return 1;
        }
    }
    return 0;
}
