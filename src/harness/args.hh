/**
 * @file
 * The front end of every binary in bench/, tools/ and examples/: Args
 * reads its command line and opens its output files, and reportError()
 * is the one place an error that escapes its main is printed.
 */

#ifndef SENTINEL_HARNESS_ARGS_HH
#define SENTINEL_HARNESS_ARGS_HH

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hh"
#include "harness/experiment.hh"

namespace sentinel::harness {

/**
 * A command line: the --key value (or --key=value) options in @p keys,
 * the bare --switch options in @p switches and at most @p operands
 * positional operands, read from argv[first, argc).  Anything else, a
 * key without its value included, is a ConfigError raised while it is
 * read, before anything runs; it names @p cmd (empty: the program).
 */
class Args
{
  public:
    Args(int argc, char **argv, const std::vector<std::string> &keys = {},
         std::size_t operands = 0,
         const std::vector<std::string> &switches = {},
         const std::string &cmd = "", int first = 1);

    std::string
    get(const std::string &key, const std::string &dflt) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? dflt : it->second;
    }

    /** True when --@p key (an option or a switch) was given. */
    bool has(const std::string &key) const { return values_.count(key); }

    /** The value of --@p key in [@p lo, @p hi] (common/parse.hh);
     *  @p dflt when the key is absent. */
    int
    getInt(const std::string &key, int dflt,
           int lo = std::numeric_limits<int>::min(),
           int hi = std::numeric_limits<int>::max()) const
    {
        return has(key) ? read("--" + key, get(key, ""), lo, hi,
                               parseInt<int>)
                        : dflt;
    }

    double
    getDouble(const std::string &key, double dflt,
              double lo = -std::numeric_limits<double>::max(),
              double hi = std::numeric_limits<double>::max()) const
    {
        return has(key) ? read("--" + key, get(key, ""), lo, hi, parseReal)
                        : dflt;
    }

    /** Decimal, 0x hex or 0-prefixed octal, unsigned. */
    std::uint64_t getU64(const std::string &key, std::uint64_t dflt) const;

    /** Positional operand @p i; @p dflt when fewer were given. */
    std::string
    operand(std::size_t i, const std::string &dflt) const
    {
        return i < operands_.size() ? operands_[i] : dflt;
    }

    /** Operand @p i as an int in [@p lo, INT_MAX], called @p name in
     *  its error; @p dflt when fewer were given. */
    int
    operandInt(std::size_t i, const std::string &name, int dflt, int lo) const
    {
        return i < operands_.size()
                   ? read(name, operands_[i], lo,
                          std::numeric_limits<int>::max(), parseInt<int>)
                   : dflt;
    }

    /**
     * A stream open on the file --@p key names (@p dflt when absent),
     * or a closed one when that is empty.  Commands open their outputs
     * before any work, so an unwritable path costs no run: FatalError
     * when the file cannot be opened.
     */
    std::ofstream openOutput(const std::string &key,
                             const std::string &dflt = "") const;

  private:
    template <class T>
    static T
    read(const std::string &label, const std::string &text, T lo, T hi,
         std::optional<T> (*parse)(std::string_view, T, T))
    {
        if (std::optional<T> out = parse(text, lo, hi))
            return *out;
        throw ConfigError("config: " + label + " " + readError(text, lo, hi));
    }

    std::map<std::string, std::string> values_;
    std::vector<std::string> operands_;
};

/** Close @p os, opened by Args::openOutput() on @p path: FatalError
 *  when a write to it failed. */
void closeOutput(std::ofstream &os, const std::string &path);

/**
 * Print the error in flight once on stderr (a FatalError as its what(),
 * "fatal: <msg>"; anything else as "error: <what()>") and return 1.
 * Every main is a function-try-block with this as its handler:
 *
 *     int main(int argc, char **argv)
 *     try { ... } catch (...) { return harness::reportError(); }
 */
int reportError();

} // namespace sentinel::harness

#endif // SENTINEL_HARNESS_ARGS_HH
