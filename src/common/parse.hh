/**
 * @file
 * The one reader of numbers written as text: CLI flags, `--colo` job
 * specs, `--chaos` clauses, `.sentinelrepro` files, model names and
 * baseline files.  A reader returns std::nullopt, and never throws,
 * unless the whole text is a number of its grammar that fits the type
 * and lies in the caller's [lo, hi]; the caller owns the message.
 *  - parseInt:  digits, with one leading '-' only when lo < 0.
 *  - parseReal: digits ['.' digits] [('e'|'E') ['+'|'-'] digits], a
 *               digit before the exponent, '-' only when lo < 0; so no
 *               '+', space, hex, "nan" or "inf".  Locale-independent.
 *  - parseSeed: C's base-0 rule (decimal, 0x hex, 0-prefixed octal)
 *               on a text that starts with a digit, without overflow.
 */

#ifndef SENTINEL_COMMON_PARSE_HH
#define SENTINEL_COMMON_PARSE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sentinel {

/** T is int, std::int64_t or std::uint64_t. */
template <class T>
std::optional<T> parseInt(std::string_view text, T lo, T hi);

std::optional<double> parseReal(std::string_view text, double lo,
                                double hi);

std::optional<std::uint64_t> parseSeed(std::string_view text);

/** @p text cut at each of the characters @p seps: n cuts give n + 1
 *  fields, empty ones included. */
std::vector<std::string> split(std::string_view text,
                               std::string_view seps);

/**
 * Why @p text failed parseInt or parseReal with [@p lo, @p hi]: "must
 * lie in [lo, hi] (got text)" for a number out of range (any whole
 * number of 64 bits, for an integer T), else "expects a number, got
 * 'text'".  T is int or double.
 */
template <class T>
std::string readError(std::string_view text, T lo, T hi);

} // namespace sentinel

#endif // SENTINEL_COMMON_PARSE_HH
