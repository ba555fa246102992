/**
 * @file
 * Fundamental units used throughout the simulator.
 *
 * Simulated time is an integer count of nanoseconds (Tick).  Sizes are
 * plain byte counts.  Bandwidths are bytes per second (double, since
 * they are configuration parameters, not accumulated state).
 */

#ifndef SENTINEL_COMMON_UNITS_HH
#define SENTINEL_COMMON_UNITS_HH

#include <cstdint>

namespace sentinel {

/** Simulated time in nanoseconds. */
using Tick = std::int64_t;

/** One simulated microsecond / millisecond / second in Ticks. */
constexpr Tick kUsec = 1000;
constexpr Tick kMsec = 1000 * kUsec;
constexpr Tick kSec = 1000 * kMsec;

/** The longest span, in ms, that a text input (a job's arrival, a
 *  chaos stall) may name: ~11.6 simulated days, far inside a Tick. */
constexpr double kMaxSpanMs = 1e9;

/** Size helpers. */
constexpr std::uint64_t KiB = 1024ull;
constexpr std::uint64_t MiB = 1024ull * KiB;
constexpr std::uint64_t GiB = 1024ull * MiB;

/**
 * Time to move @p bytes at @p bytes_per_sec, rounded up to a whole Tick
 * (never returns 0 for a non-zero transfer so that event ordering stays
 * strict).
 */
constexpr Tick
transferTime(std::uint64_t bytes, double bytes_per_sec)
{
    if (bytes == 0 || bytes_per_sec <= 0.0)
        return 0;
    double ns = static_cast<double>(bytes) * 1e9 / bytes_per_sec;
    Tick t = static_cast<Tick>(ns);
    return t > 0 ? t : 1;
}

/** Convert Ticks to (double) seconds, for reporting. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / 1e9;
}

/** Convert Ticks to (double) milliseconds, for reporting. */
constexpr double
toMillis(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

} // namespace sentinel

#endif // SENTINEL_COMMON_UNITS_HH
