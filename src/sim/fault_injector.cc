#include "sim/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "common/logging.hh"
#include "common/parse.hh"

namespace sentinel::sim {

namespace {

/// splitmix64: tiny, well-mixed, and stateless — exactly what the
/// per-(seed, step, layer) jitter needs to stay order-independent.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hashed key.
double
hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = mix64(seed ^ mix64(a ^ mix64(b)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

ChannelSel
parseChannel(const std::string &v, const std::string &clause)
{
    if (v == "promote") return ChannelSel::Promote;
    if (v == "demote") return ChannelSel::Demote;
    if (v == "both") return ChannelSel::Both;
    SENTINEL_FATAL("chaos clause '%s': bad channel '%s' "
                   "(want promote|demote|both)",
                   clause.c_str(), v.c_str());
}

/** @p v, the value of @p key in @p clause, as @p read reads it within
 *  [@p lo, @p hi]. */
template <class T>
T
field(const std::string &clause, const std::string &key,
      const std::string &v, T lo, T hi,
      std::optional<T> (*read)(std::string_view, T, T))
{
    if (std::optional<T> x = read(v, lo, hi))
        return *x;
    SENTINEL_FATAL("chaos clause '%s': %s %s", clause.c_str(), key.c_str(),
                   readError(v, lo, hi).c_str());
}

/** Factors and amplitudes may be any finite number; each kind checks
 *  its own below. */
constexpr double kMaxReal = std::numeric_limits<double>::max();

} // namespace

FaultSpec
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    for (const std::string &clause : split(text, ";")) {
        if (clause.empty())
            continue;
        auto colon = clause.find(':');
        if (colon == std::string::npos)
            SENTINEL_FATAL("chaos clause '%s': want kind:key=val,...",
                           clause.c_str());
        std::string kind = clause.substr(0, colon);

        FaultEvent ev;
        bool have_step = false;
        if (kind == "bw") {
            ev.kind = FaultKind::BwDegrade;
        } else if (kind == "stall") {
            ev.kind = FaultKind::ChannelStall;
        } else if (kind == "shrink") {
            ev.kind = FaultKind::CapacityShrink;
        } else if (kind == "jitter") {
            ev.kind = FaultKind::ComputeJitter;
        } else if (kind == "drift") {
            ev.kind = FaultKind::TrafficDrift;
        } else {
            SENTINEL_FATAL("chaos clause '%s': unknown kind '%s' "
                           "(want bw|stall|shrink|jitter|drift)",
                           clause.c_str(), kind.c_str());
        }

        for (const std::string &kv : split(clause.substr(colon + 1), ",")) {
            if (kv.empty())
                continue;
            auto eq = kv.find('=');
            if (eq == std::string::npos)
                SENTINEL_FATAL("chaos clause '%s': bad key=val '%s'",
                               clause.c_str(), kv.c_str());
            std::string key = kv.substr(0, eq);
            std::string val = kv.substr(eq + 1);
            if (key == "step") {
                ev.step = field(clause, key, val, 0,
                                std::numeric_limits<int>::max(),
                                parseInt<int>);
                have_step = true;
            } else if (key == "factor") {
                ev.factor =
                    field(clause, key, val, -kMaxReal, kMaxReal, parseReal);
            } else if (key == "amp") {
                ev.amplitude =
                    field(clause, key, val, -kMaxReal, kMaxReal, parseReal);
            } else if (key == "ms") {
                ev.duration = static_cast<Tick>(
                    field(clause, key, val, 0.0, kMaxSpanMs, parseReal) *
                    kMsec);
            } else if (key == "us") {
                ev.duration = static_cast<Tick>(
                    field(clause, key, val, 0.0, kMaxSpanMs * 1e3,
                          parseReal) *
                    kUsec);
            } else if (key == "ch") {
                ev.channel = parseChannel(val, clause);
            } else if (key == "tier") {
                if (ev.kind != FaultKind::CapacityShrink)
                    SENTINEL_FATAL("chaos clause '%s': key 'tier' is only "
                                   "valid for shrink",
                                   clause.c_str());
                ev.tier = static_cast<unsigned>(
                    field(clause, key, val, 0,
                          static_cast<int>(kMaxFaultTiers) - 1,
                          parseInt<int>));
            } else {
                SENTINEL_FATAL("chaos clause '%s': unknown key '%s'",
                               clause.c_str(), key.c_str());
            }
        }

        if (!have_step)
            SENTINEL_FATAL("chaos clause '%s': missing step=", clause.c_str());
        switch (ev.kind) {
        case FaultKind::BwDegrade:
        case FaultKind::CapacityShrink:
        case FaultKind::TrafficDrift:
            if (ev.factor <= 0.0)
                SENTINEL_FATAL("chaos clause '%s': factor must be > 0",
                               clause.c_str());
            break;
        case FaultKind::ChannelStall:
            if (ev.duration <= 0)
                SENTINEL_FATAL("chaos clause '%s': want ms= or us= > 0",
                               clause.c_str());
            break;
        case FaultKind::ComputeJitter:
            if (ev.amplitude <= 0.0 || ev.amplitude >= 1.0)
                SENTINEL_FATAL("chaos clause '%s': amp must be in (0, 1)",
                               clause.c_str());
            break;
        }
        spec.events.push_back(ev);
    }
    if (spec.events.empty())
        SENTINEL_FATAL("empty chaos spec '%s'", text.c_str());
    return spec;
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

void
FaultInjector::beginStep(int step)
{
    step_ = step;
    any_active_ = false;
    promote_scale_ = 1.0;
    demote_scale_ = 1.0;
    for (double &s : capacity_scales_)
        s = 1.0;
    traffic_scale_ = 1.0;
    jitter_amp_ = 0.0;
    stalls_ = StepStalls{};

    // Re-fold from scratch every step: the accessors report *absolute*
    // scales relative to the profiled baseline, so repeated application
    // cannot compound.
    for (const FaultEvent &ev : spec_.events) {
        if (step < ev.step) continue;
        any_active_ = true;
        switch (ev.kind) {
        case FaultKind::BwDegrade:
            if (ev.channel != ChannelSel::Demote)
                promote_scale_ *= ev.factor;
            if (ev.channel != ChannelSel::Promote)
                demote_scale_ *= ev.factor;
            break;
        case FaultKind::ChannelStall:
            if (step == ev.step) {
                if (ev.channel != ChannelSel::Demote)
                    stalls_.promote = std::max(stalls_.promote, ev.duration);
                if (ev.channel != ChannelSel::Promote)
                    stalls_.demote = std::max(stalls_.demote, ev.duration);
            }
            break;
        case FaultKind::CapacityShrink:
            capacity_scales_[ev.tier] *= ev.factor;
            break;
        case FaultKind::ComputeJitter:
            jitter_amp_ = std::max(jitter_amp_, ev.amplitude);
            break;
        case FaultKind::TrafficDrift:
            traffic_scale_ *= ev.factor;
            break;
        }
    }
}

double
FaultInjector::computeScale(int layer) const
{
    if (jitter_amp_ <= 0.0) return 1.0;
    double u = hash01(spec_.seed, static_cast<std::uint64_t>(step_),
                      static_cast<std::uint64_t>(layer));
    return 1.0 + jitter_amp_ * (2.0 * u - 1.0);
}

} // namespace sentinel::sim
