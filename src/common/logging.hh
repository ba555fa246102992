/**
 * @file
 * Status/error reporting helpers in the spirit of gem5's logging.hh.
 *
 * Two classes of errors are distinguished (deliberately, per the gem5
 * style guide):
 *
 *  - panic():  something happened that should never happen regardless of
 *              what the user does, i.e. a bug in this library.  Aborts.
 *  - fatal():  the simulation cannot continue due to a user-level problem
 *              (bad configuration, impossible experiment parameters).
 *              Prints one line and throws FatalError; the tools exit
 *              with an error code.
 *
 * In addition, warn() and inform() print non-fatal status messages.
 */

#ifndef SENTINEL_COMMON_LOGGING_HH
#define SENTINEL_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace sentinel {

/** Severity levels used by the message sink. */
enum class LogLevel {
    Inform,
    Warn,
    Fatal,
    Panic,
};

/**
 * Formats a printf-style message into a std::string.
 *
 * @param fmt printf-style format string.
 * @return the formatted message.
 */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * What fatal() throws, once its "fatal: <msg>" line is written; what()
 * is that line's text.  A top level that catches it has nothing left
 * to print.
 */
class FatalError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Controls whether inform() messages are printed.  Benchmarks silence
 * them to keep their table output clean.
 */
void setVerbose(bool verbose);

/** @return true if inform() messages are currently printed. */
bool verbose();

/**
 * Send the lines this thread's panic, fatal, warn and inform messages
 * write to stderr into @p lines instead (null: stderr again).
 * @return the previous target.
 */
std::string *redirectLog(std::string *lines);

/** Write whole lines where this thread's messages go. */
void emitLog(const std::string &lines);

} // namespace sentinel

/** Report an internal invariant violation and abort. */
#define SENTINEL_PANIC(...)                                                   \
    ::sentinel::detail::panicImpl(__FILE__, __LINE__,                         \
                                  ::sentinel::strprintf(__VA_ARGS__))

/**
 * Report an unrecoverable user-level error and throw FatalError.  The
 * message names the problem; a user needs no source location.
 */
#define SENTINEL_FATAL(...)                                                   \
    ::sentinel::detail::fatalImpl(::sentinel::strprintf(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define SENTINEL_WARN(...)                                                    \
    ::sentinel::detail::warnImpl(::sentinel::strprintf(__VA_ARGS__))

/** Report normal operating status (silenced unless verbose). */
#define SENTINEL_INFORM(...)                                                  \
    ::sentinel::detail::informImpl(::sentinel::strprintf(__VA_ARGS__))

/**
 * Internal assertion: like assert(), but active in all build types and
 * routed through panic() so the message carries context.
 */
#define SENTINEL_ASSERT(cond, ...)                                            \
    do {                                                                      \
        if (!(cond)) {                                                        \
            SENTINEL_PANIC("assertion '%s' failed: %s", #cond,                \
                           ::sentinel::strprintf(__VA_ARGS__).c_str());       \
        }                                                                     \
    } while (0)

#endif // SENTINEL_COMMON_LOGGING_HH
