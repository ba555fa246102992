#include "server/job.hh"

#include <limits>
#include <optional>
#include <string_view>

#include "common/logging.hh"
#include "common/parse.hh"
#include "harness/experiment.hh"

namespace sentinel::server {

namespace {

constexpr char kBlanks[] = " \t";

/** @p v, the value of @p key, as @p read reads it within [@p lo, @p hi]. */
template <class T>
T
field(const std::string &key, const std::string &v, T lo, T hi,
      std::optional<T> (*read)(std::string_view, T, T))
{
    if (std::optional<T> x = read(v, lo, hi))
        return *x;
    throw harness::ConfigError("job spec: " + key + " " +
                               readError(v, lo, hi));
}

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr double kRealMax = std::numeric_limits<double>::max();

} // namespace

JobSpec
JobSpec::parse(const std::string &text)
{
    JobSpec spec;
    for (const std::string &tok : split(text, kBlanks)) {
        if (tok.empty())
            continue;
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            throw harness::ConfigError(strprintf(
                "job spec: expected k=v fields, got '%s'", tok.c_str()));
        std::string key = tok.substr(0, eq);
        std::string val = tok.substr(eq + 1);
        if (key == "name") {
            spec.name = val;
        } else if (key == "model") {
            spec.model = val;
        } else if (key == "batch") {
            spec.batch = field(key, val, 0, kIntMax, parseInt<int>);
        } else if (key == "policy") {
            spec.policy = val;
        } else if (key == "quota") {
            // A fraction of the node tier, or "<N>mb" for bytes.
            if (val.size() > 2 &&
                (val.compare(val.size() - 2, 2, "mb") == 0 ||
                 val.compare(val.size() - 2, 2, "MB") == 0)) {
                spec.quota_bytes =
                    static_cast<std::uint64_t>(
                        field(key, val.substr(0, val.size() - 2), 1,
                              kIntMax, parseInt<int>))
                    << 20;
            } else {
                spec.quota_fraction =
                    field(key, val, -kRealMax, kRealMax, parseReal);
            }
        } else if (key == "quota-mb") {
            spec.quota_bytes = static_cast<std::uint64_t>(field(
                                   key, val, 1, kIntMax, parseInt<int>))
                               << 20;
        } else if (key == "prio") {
            spec.priority = field(key, val, 1, kIntMax, parseInt<int>);
        } else if (key == "arrival-ms") {
            spec.arrival = static_cast<Tick>(
                field(key, val, 0.0, kMaxSpanMs, parseReal) *
                static_cast<double>(kMsec));
        } else if (key == "steps") {
            spec.steps = field(key, val, kIntMin, kIntMax, parseInt<int>);
        } else if (key == "warmup") {
            spec.warmup = field(key, val, kIntMin, kIntMax, parseInt<int>);
        } else if (key == "chaos") {
            spec.chaos = val;
        } else if (key == "chaos-seed") {
            const std::optional<std::uint64_t> seed = parseSeed(val);
            if (!seed)
                throw harness::ConfigError(strprintf(
                    "job spec: chaos-seed expects a number, got '%s'",
                    val.c_str()));
            spec.chaos_seed = *seed;
        } else {
            throw harness::ConfigError(strprintf(
                "job spec: unknown key '%s' (in '%s')", key.c_str(),
                tok.c_str()));
        }
    }
    if (spec.quota_bytes == 0 &&
        (spec.quota_fraction <= 0.0 || spec.quota_fraction > 1.0))
        throw harness::ConfigError(strprintf(
            "job spec: quota fraction must lie in (0, 1] (got %g)",
            spec.quota_fraction));
    return spec;
}

std::vector<JobSpec>
JobSpec::parseList(const std::string &text)
{
    std::vector<JobSpec> out;
    for (const std::string &part : split(text, ";"))
        if (part.find_first_not_of(kBlanks) != std::string::npos)
            out.push_back(parse(part));
    return out;
}

std::string
JobSpec::toSpecString() const
{
    std::string s = "model=" + model;
    if (!name.empty())
        s += " name=" + name;
    if (batch != 0)
        s += strprintf(" batch=%d", batch);
    if (policy != "sentinel")
        s += " policy=" + policy;
    if (quota_bytes != 0)
        s += strprintf(" quota-mb=%llu",
                       static_cast<unsigned long long>(quota_bytes >> 20));
    else
        s += strprintf(" quota=%.17g", quota_fraction);
    if (priority != 1)
        s += strprintf(" prio=%d", priority);
    if (arrival != 0)
        s += strprintf(" arrival-ms=%.17g",
                       toMillis(arrival));
    if (steps != 0)
        s += strprintf(" steps=%d", steps);
    if (warmup >= 0)
        s += strprintf(" warmup=%d", warmup);
    if (!chaos.empty())
        s += " chaos=" + chaos;
    if (chaos_seed != 0x5e97195eull)
        s += strprintf(" chaos-seed=0x%llx",
                       static_cast<unsigned long long>(chaos_seed));
    return s;
}

} // namespace sentinel::server
