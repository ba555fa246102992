/**
 * @file
 * sentinel_fuzz: randomized workload fuzzer over the cross-policy
 * differential oracle.
 *
 * Each iteration derives a FuzzCase from the campaign seed (a
 * synthetic:<seed> model plus harness knobs), runs it through the full
 * policy matrix, and checks every oracle invariant.  On a violation the
 * deterministic shrinker minimizes the case while the same invariant
 * keeps failing and writes a `.sentinelrepro` file replayable via
 * `sentinel-cli replay` (commit it to tests/fuzz/corpus/ once the bug
 * is fixed).
 *
 * `--mode server` fuzzes multi-job co-locations instead: each
 * iteration derives a random 2-job mix (server::randomColocation) and
 * runs it through the multi-job oracle — per-job traffic invariance
 * against independent solo re-runs, serial == parallel determinism,
 * node DMA conservation, capacity, and dilation.  Violating mixes are
 * printed as `sentinel-cli serve --colo` spec strings (the repro is
 * the spec itself; there is nothing to shrink).
 *
 * Usage:
 *   sentinel_fuzz [--iters N] [--seed S] [--jobs J] [--out DIR]
 *                 [--inject capacity=F | --inject traffic=F]
 *                 [--no-determinism] [--no-shrink] [--keep-going]
 *                 [--mode policy|server] [--colo-jobs N]
 *   sentinel_fuzz --replay FILE.sentinelrepro [--jobs J]
 *
 * Exit codes: 0 = all iterations clean, 2 = violations found,
 *             1 = usage / configuration error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "harness/oracle.hh"
#include "server/oracle.hh"

using namespace sentinel;
using harness::ConfigError;
using harness::FuzzCase;
using harness::OracleReport;

namespace {

struct Options {
    int iters = 50;
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string out_dir = ".";
    std::string replay;
    double inject_capacity = 0.0;
    double inject_traffic = 0.0;
    bool determinism = true;
    bool do_shrink = true;
    bool keep_going = false;
    std::string mode = "policy"; ///< "policy" or "server"
    int colo_jobs = 2;           ///< jobs per server-mode co-location
    std::string planner = "greedy"; ///< sentinel layout solver
    int tiers = 0; ///< force the chain length (0 = let the case draw)
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sentinel_fuzz [--iters N] [--seed S] [--jobs J]\n"
        "                     [--out DIR] [--inject capacity=F]\n"
        "                     [--inject traffic=F] [--no-determinism]\n"
        "                     [--no-shrink] [--keep-going]\n"
        "                     [--mode policy|server] [--colo-jobs N]\n"
        "                     [--planner greedy|interval] [--tiers N]\n"
        "       sentinel_fuzz --replay FILE.sentinelrepro [--jobs J]\n");
    return 1;
}

bool
parseInject(const std::string &v, Options &o)
{
    std::size_t eq = v.find('=');
    if (eq == std::string::npos)
        return false;
    std::string kind = v.substr(0, eq);
    double f = std::atof(v.c_str() + eq + 1);
    if (kind == "capacity")
        o.inject_capacity = f;
    else if (kind == "traffic")
        o.inject_traffic = f;
    else
        return false;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return ++i < argc ? argv[i] : nullptr;
        };
        if (a == "--iters") {
            const char *v = next();
            if (!v)
                return false;
            o.iters = std::atoi(v);
        } else if (a == "--seed") {
            const char *v = next();
            if (!v)
                return false;
            o.seed = std::strtoull(v, nullptr, 0);
        } else if (a == "--jobs") {
            const char *v = next();
            if (!v)
                return false;
            o.jobs = std::atoi(v);
        } else if (a == "--out") {
            const char *v = next();
            if (!v)
                return false;
            o.out_dir = v;
        } else if (a == "--replay") {
            const char *v = next();
            if (!v)
                return false;
            o.replay = v;
        } else if (a == "--inject") {
            const char *v = next();
            if (!v || !parseInject(v, o))
                return false;
        } else if (a == "--mode") {
            const char *v = next();
            if (!v)
                return false;
            o.mode = v;
        } else if (a == "--colo-jobs") {
            const char *v = next();
            if (!v)
                return false;
            o.colo_jobs = std::atoi(v);
        } else if (a == "--planner") {
            const char *v = next();
            if (!v)
                return false;
            o.planner = v;
        } else if (a == "--tiers") {
            const char *v = next();
            if (!v)
                return false;
            o.tiers = std::atoi(v);
        } else if (a == "--no-determinism") {
            o.determinism = false;
        } else if (a == "--no-shrink") {
            o.do_shrink = false;
        } else if (a == "--keep-going") {
            o.keep_going = true;
        } else {
            return false;
        }
    }
    return o.iters > 0 && o.jobs > 0 && o.colo_jobs > 0 && o.tiers >= 0 &&
           (o.mode == "policy" || o.mode == "server") &&
           (o.planner == "greedy" || o.planner == "interval");
}

/** Per-iteration case seed: decorrelated from neighbours so adjacent
 *  iterations explore unrelated corners (splitmix64 finalizer). */
std::uint64_t
caseSeed(std::uint64_t campaign_seed, int iter)
{
    std::uint64_t z = campaign_seed +
                      0x9e3779b97f4a7c15ull *
                          (static_cast<std::uint64_t>(iter) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1; // synthetic seeds stay nonzero
}

int
replayMode(const Options &o)
{
    FuzzCase fc = FuzzCase::load(o.replay);
    OracleReport rep = fc.run(o.jobs, o.determinism);
    std::printf("%s", rep.summary().c_str());
    return rep.ok() ? 0 : 2;
}

int
serverFuzzMode(const Options &o)
{
    int skipped = 0;
    int failures = 0;
    for (int i = 0; i < o.iters; ++i) {
        std::uint64_t cs = caseSeed(o.seed, i);
        std::vector<server::JobSpec> specs =
            server::randomColocation(cs, o.colo_jobs);

        server::ServerConfig cfg;
        cfg.fast_bytes = 64ull << 20;
        server::ServerOracleOptions opts;
        opts.jobs = o.jobs > 1 ? o.jobs : 2;
        opts.check_determinism = o.determinism;

        OracleReport rep;
        try {
            rep = server::runServerOracle(cfg, specs, opts);
        } catch (const ConfigError &e) {
            ++skipped;
            std::printf("iter %d seed %llu: skipped (%s)\n", i,
                        static_cast<unsigned long long>(cs), e.what());
            continue;
        }
        if (rep.ok()) {
            std::printf("iter %d seed %llu: ok (%d jobs)\n", i,
                        static_cast<unsigned long long>(cs),
                        o.colo_jobs);
            continue;
        }

        ++failures;
        std::printf("iter %d seed %llu: VIOLATION\n%s", i,
                    static_cast<unsigned long long>(cs),
                    rep.summary().c_str());
        std::string colo;
        for (const auto &s : specs) {
            if (!colo.empty())
                colo += "; ";
            colo += s.toSpecString();
        }
        std::printf("repro: sentinel-cli serve --oracle 1 --colo '%s'\n",
                    colo.c_str());
        if (!o.keep_going)
            break;
    }
    std::printf("server fuzz campaign: %d iterations, %d skipped, %d "
                "violations\n",
                o.iters, skipped, failures);
    return failures > 0 ? 2 : 0;
}

int
fuzzMode(const Options &o)
{
    int skipped = 0;
    int failures = 0;
    for (int i = 0; i < o.iters; ++i) {
        std::uint64_t cs = caseSeed(o.seed, i);
        FuzzCase fc = FuzzCase::random(cs);
        fc.planner = o.planner;
        if (o.tiers > 0)
            fc.tiers = o.tiers;
        fc.inject_capacity = o.inject_capacity;
        fc.inject_traffic = o.inject_traffic;

        OracleReport rep;
        try {
            rep = fc.run(o.jobs, o.determinism);
        } catch (const ConfigError &e) {
            // A rejected input, not a violated invariant: the
            // generator wandered outside the harness preconditions.
            ++skipped;
            std::printf("iter %d seed %llu: skipped (%s)\n", i,
                        static_cast<unsigned long long>(cs), e.what());
            continue;
        }
        if (rep.ok()) {
            std::printf("iter %d seed %llu: ok (%zu cells)\n", i,
                        static_cast<unsigned long long>(cs),
                        rep.cells.size());
            continue;
        }

        ++failures;
        std::printf("iter %d seed %llu: VIOLATION\n%s", i,
                    static_cast<unsigned long long>(cs),
                    rep.summary().c_str());

        FuzzCase minimal = fc;
        if (o.do_shrink) {
            int runs = 0;
            minimal = harness::shrink(fc, o.jobs, &runs);
            std::printf("shrunk after %d oracle runs to:\n%s", runs,
                        minimal.serialize().c_str());
        }
        std::string path = o.out_dir + "/repro-" + std::to_string(cs) +
                           ".sentinelrepro";
        minimal.save(path);
        std::printf("repro written to %s (replay with: sentinel-cli "
                    "replay %s)\n",
                    path.c_str(), path.c_str());
        if (!o.keep_going)
            break;
    }
    std::printf("fuzz campaign: %d iterations, %d skipped, %d "
                "violations\n",
                o.iters, skipped, failures);
    return failures > 0 ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return usage();
    try {
        if (!o.replay.empty())
            return replayMode(o);
        return o.mode == "server" ? serverFuzzMode(o) : fuzzMode(o);
    } catch (const FatalError &) {
        return 1; // fatal() has printed it
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
