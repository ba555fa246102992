#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sentinel {

namespace {

// Relaxed is enough: verbosity is a filter, not a synchronization
// point, and parallel sweeps only need the read to be tear-free.
std::atomic<bool> g_verbose{false};

/** Where this thread's lines go instead of stderr (redirectLog()). */
thread_local std::string *t_log = nullptr;

/** Emit one fully-formatted line with a single emitLog() call. */
void
emitLine(const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(std::char_traits<char>::length(prefix) + msg.size() + 1);
    line += prefix;
    line += msg;
    line += '\n';
    emitLog(line);
}

} // namespace

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
setVerbose(bool verbose)
{
    g_verbose.store(verbose, std::memory_order_relaxed);
}

bool
verbose()
{
    return g_verbose.load(std::memory_order_relaxed);
}

std::string *
redirectLog(std::string *lines)
{
    return std::exchange(t_log, lines);
}

/**
 * One stdio call per block: stdio locks the stream internally, so
 * concurrent emitters cannot interleave characters within each other's
 * lines.
 */
void
emitLog(const std::string &lines)
{
    if (t_log)
        *t_log += lines;
    else
        std::fputs(lines.c_str(), stderr);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emitLine("panic: ", strprintf("%s (%s:%d)", msg.c_str(), file, line));
    std::fflush(stderr);
    // Throwing (rather than abort()) lets tests exercise panic paths with
    // EXPECT_THROW while still terminating any uncaught failure.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    emitLine("fatal: ", msg);
    std::fflush(stderr);
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    if (verbose())
        emitLine("info: ", msg);
}

} // namespace detail

} // namespace sentinel
