#include "telemetry/openmetrics.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "common/logging.hh"

namespace sentinel::telemetry {

namespace {

bool
omNameChar(char c, bool first)
{
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':')
        return true;
    return !first && c >= '0' && c <= '9';
}

const std::string kEmpty;

} // namespace

const std::string &
OmSample::label(const std::string &key) const
{
    for (const OmLabel &l : labels)
        if (l.key == key)
            return l.value;
    return kEmpty;
}

std::string
omSanitizeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (std::size_t i = 0; i < name.size(); ++i) {
        char c = name[i];
        if (i == 0 && c >= '0' && c <= '9')
            out += '_';
        out += omNameChar(c, /*first=*/out.empty()) ? c : '_';
    }
    if (out.empty())
        out.push_back('_');
    return out;
}

std::string
omEscapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
omFormatValue(double v)
{
    // Integral values print without an exponent or trailing zeros so
    // the exposition stays grep-friendly; everything else gets enough
    // digits to round-trip.  The range test comes first: casting a
    // NaN or a value beyond long long is undefined.
    if (std::fabs(v) < 9e18 && v == std::trunc(v))
        return strprintf("%lld", static_cast<long long>(v));
    return strprintf("%.10g", v);
}

void
omWriteType(std::ostream &os, const std::string &name, const char *type)
{
    os << "# TYPE " << name << ' ' << type << '\n';
}

void
omWriteSample(std::ostream &os, const std::string &name,
              const std::vector<OmLabel> &labels, double value)
{
    os << name;
    if (!labels.empty()) {
        os << '{';
        for (std::size_t i = 0; i < labels.size(); ++i) {
            if (i)
                os << ',';
            os << labels[i].key << "=\"" << omEscapeLabel(labels[i].value)
               << '"';
        }
        os << '}';
    }
    os << ' ' << omFormatValue(value) << '\n';
}

void
omWriteEof(std::ostream &os)
{
    os << "# EOF\n";
}

void
writeOpenMetrics(const MetricRegistry &metrics, std::ostream &os,
                 const std::vector<OmLabel> &labels)
{
    for (const MetricRow &r : metrics.snapshot()) {
        std::string name = omSanitizeName(r.name);
        if (r.kind == "counter") {
            name += "_total";
            omWriteType(os, name, "counter");
            omWriteSample(os, name, labels, static_cast<double>(r.sum));
        } else if (r.kind == "gauge") {
            omWriteType(os, name, "gauge");
            omWriteSample(os, name, labels, static_cast<double>(r.max));
        } else {
            omWriteType(os, name, "summary");
            std::vector<OmLabel> ql = labels;
            ql.push_back({ "quantile", "0.5" });
            omWriteSample(os, name, ql, static_cast<double>(r.p50));
            ql.back().value = "0.99";
            omWriteSample(os, name, ql, static_cast<double>(r.p99));
            // p50/p99 are bucket bounds; quantile 1 is the exact max.
            ql.back().value = "1";
            omWriteSample(os, name, ql, static_cast<double>(r.max));
            omWriteSample(os, name + "_count", labels,
                          static_cast<double>(r.count));
            omWriteSample(os, name + "_sum", labels,
                          static_cast<double>(r.sum));
        }
    }
}

namespace {

bool
fail(std::string *err, std::size_t line_no, const char *what)
{
    if (err)
        *err = strprintf("line %zu: %s", line_no, what);
    return false;
}

} // namespace

bool
parseOpenMetrics(const std::string &text, std::vector<OmSample> &out,
                 std::string *err)
{
    std::size_t pos = 0, line_no = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;

        OmSample s;
        std::size_t i = 0;
        while (i < line.size() && omNameChar(line[i], i == 0))
            ++i;
        if (i == 0)
            return fail(err, line_no, "expected a metric name");
        s.name = line.substr(0, i);

        if (i < line.size() && line[i] == '{') {
            ++i;
            while (i < line.size() && line[i] != '}') {
                OmLabel l;
                std::size_t k = i;
                while (k < line.size() && omNameChar(line[k], k == i))
                    ++k;
                if (k == i || k >= line.size() || line[k] != '=')
                    return fail(err, line_no, "malformed label");
                l.key = line.substr(i, k - i);
                i = k + 1;
                if (i >= line.size() || line[i] != '"')
                    return fail(err, line_no, "label value not quoted");
                ++i;
                while (i < line.size() && line[i] != '"') {
                    char c = line[i];
                    if (c == '\\' && i + 1 < line.size()) {
                        ++i;
                        c = line[i] == 'n' ? '\n' : line[i];
                    }
                    l.value += c;
                    ++i;
                }
                if (i >= line.size())
                    return fail(err, line_no, "unterminated label value");
                ++i; // closing quote
                if (i < line.size() && line[i] == ',')
                    ++i;
                s.labels.push_back(std::move(l));
            }
            if (i >= line.size())
                return fail(err, line_no, "unterminated label set");
            ++i; // closing brace
        }

        auto skipSpaces = [&line](std::size_t k) {
            while (k < line.size() && line[k] == ' ')
                ++k;
            return k;
        };
        const std::size_t name_end = i;
        i = skipSpaces(i);
        if (i >= line.size())
            return fail(err, line_no, "sample has no value");
        if (i == name_end)
            return fail(err, line_no, "no space before the value");
        char *end = nullptr;
        s.value = std::strtod(line.c_str() + i, &end);
        if (end == line.c_str() + i)
            return fail(err, line_no, "unparsable value");
        // Only an optional timestamp may follow the value, so a lost
        // newline cannot fold the next sample into this one.
        const auto value_end = static_cast<std::size_t>(end - line.c_str());
        i = skipSpaces(value_end);
        if (i > value_end && i < line.size()) { // the timestamp
            std::strtod(line.c_str() + i, &end);
            i = skipSpaces(static_cast<std::size_t>(end - line.c_str()));
        }
        if (i < line.size())
            return fail(err, line_no, "trailing characters after the value");
        out.push_back(std::move(s));
    }
    return true;
}

std::vector<std::string>
splitScrapeFrames(const std::string &text)
{
    std::vector<std::string> frames;
    const std::string eof = "# EOF\n";
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t at = text.find(eof, pos);
        if (at == std::string::npos)
            break;
        frames.push_back(text.substr(pos, at + eof.size() - pos));
        pos = at + eof.size();
    }
    return frames;
}

namespace {

/** OmDiffRow::key of @p s. */
std::string
omSampleKey(const OmSample &s)
{
    std::string key = s.name;
    for (std::size_t i = 0; i < s.labels.size(); ++i)
        key += (i ? "," : "{") + s.labels[i].key + "=\"" +
               omEscapeLabel(s.labels[i].value) + '"';
    if (!s.labels.empty())
        key += '}';
    return key;
}

} // namespace

std::vector<OmDiffRow>
diffSamples(const std::vector<OmSample> &a, const std::vector<OmSample> &b,
            double threshold_pct)
{
    std::map<std::string, OmDiffRow> by_key;
    auto add = [&by_key](const std::vector<OmSample> &side, bool first) {
        for (const OmSample &s : side) {
            std::string key = omSampleKey(s);
            OmDiffRow &r = by_key[key];
            std::optional<double> &slot = first ? r.a : r.b;
            if (slot)
                throw std::invalid_argument(strprintf(
                    "sample %s appears twice in the %s exposition",
                    key.c_str(), first ? "first" : "second"));
            slot = s.value;
            r.key = std::move(key);
        }
    };
    add(a, true);
    add(b, false);

    std::vector<OmDiffRow> rows;
    for (auto &kv : by_key) {
        OmDiffRow &r = kv.second;
        if (r.a && r.b) {
            if (*r.a == 0.0)
                r.change_pct = *r.b == 0.0 ? 0.0 : 100.0;
            else
                r.change_pct = 100.0 * (*r.b - *r.a) / *r.a;
            r.flagged = r.change_pct > threshold_pct ||
                        r.change_pct < -threshold_pct;
            if (*r.a == *r.b && !r.flagged)
                continue;
        } else {
            r.flagged = true;
        }
        rows.push_back(std::move(r));
    }
    return rows;
}

} // namespace sentinel::telemetry
