#include "common/parse.hh"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/logging.hh"

namespace sentinel {

namespace {

/** Moves @p i past the digits at @p s[i]; how many there were. */
std::size_t
skipDigits(std::string_view s, std::size_t &i)
{
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9')
        ++i;
    return i - from;
}

/** Whether @p s is in parseInt's grammar or, with @p real, parseReal's. */
bool
wellFormed(std::string_view s, bool minus_ok, bool real)
{
    std::size_t i = minus_ok && !s.empty() && s[0] == '-' ? 1 : 0;
    std::size_t mantissa = skipDigits(s, i);
    if (real && i < s.size() && s[i] == '.')
        mantissa += skipDigits(s, ++i);
    if (mantissa == 0)
        return false;
    if (real && i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        if (++i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (skipDigits(s, i) == 0)
            return false;
    }
    return i == s.size();
}

template <class T>
std::optional<T>
read(std::string_view text, T lo, T hi)
{
    bool minus_ok = false;
    if constexpr (std::is_signed_v<T>)
        minus_ok = lo < 0;
    if (!wellFormed(text, minus_ok, std::is_floating_point_v<T>))
        return std::nullopt;
    T v{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || !(v >= lo && v <= hi))
        return std::nullopt; // overflow, or out of range
    return v;
}

} // namespace

template <class T>
std::optional<T>
parseInt(std::string_view text, T lo, T hi)
{
    return read(text, lo, hi);
}

std::optional<double>
parseReal(std::string_view text, double lo, double hi)
{
    return read(text, lo, hi);
}

std::optional<std::uint64_t>
parseSeed(std::string_view text)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return std::nullopt;
    const std::string s(text);
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

std::vector<std::string>
split(std::string_view text, std::string_view seps)
{
    std::vector<std::string> out;
    std::size_t from = 0;
    for (std::size_t at; (at = text.find_first_of(seps, from)) != text.npos;
         from = at + 1)
        out.emplace_back(text.substr(from, at - from));
    out.emplace_back(text.substr(from));
    return out;
}

template <class T>
std::string
readError(std::string_view text, T lo, T hi)
{
    using I = std::numeric_limits<std::int64_t>;
    using U = std::numeric_limits<std::uint64_t>;
    constexpr double kMax = std::numeric_limits<double>::max();
    const bool number =
        std::is_floating_point_v<T>
            ? read(text, -kMax, kMax).has_value()
            : read(text, I::min(), I::max()) || read(text, U::min(), U::max());
    if (!number)
        return "expects a number, got '" + std::string(text) + "'";
    auto str = [](T v) {
        if constexpr (std::is_floating_point_v<T>) {
            // %g, unless it rounds the bound: then the shortest text
            // that reads back as it.
            std::string s = strprintf("%g", v);
            if (std::strtod(s.c_str(), nullptr) != v) {
                char buf[32];
                s.assign(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
            }
            return s;
        } else {
            return std::to_string(v);
        }
    };
    return "must lie in [" + str(lo) + ", " + str(hi) + "] (got " +
           std::string(text) + ")";
}

template std::optional<int> parseInt(std::string_view, int, int);
template std::optional<std::int64_t> parseInt(std::string_view,
                                              std::int64_t, std::int64_t);
template std::optional<std::uint64_t>
parseInt(std::string_view, std::uint64_t, std::uint64_t);
template std::string readError(std::string_view, int, int);
template std::string readError(std::string_view, double, double);

} // namespace sentinel
