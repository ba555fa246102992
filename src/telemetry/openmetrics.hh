/**
 * @file
 * OpenMetrics / Prometheus text exposition: the scrape format of the
 * live observability plane.
 *
 * The writer side renders a MetricRegistry (and, via server/scrape.hh,
 * the server's per-job time series) as a standard exposition:
 *
 *   # TYPE sentinel_job_step_ms summary
 *   sentinel_job_step_ms{job="resnet32#0",quantile="0.5"} 1.234
 *   ...
 *   # EOF
 *
 * so any Prometheus-compatible collector can scrape a running server.
 * Values carry no wall-clock timestamps — a scrape is a pure function
 * of simulated state, which is what makes snapshot files byte-
 * identical across --jobs values and reusable as golden test vectors.
 *
 * The parser side reads the same format back (names, labels, value)
 * for `sentinel-cli top` — the terminal view works identically from a
 * live HTTP endpoint and from a --scrape-out snapshot file — and for
 * `sentinel-cli metrics-diff`, which compares two `run --metrics-out`
 * files (each one exposition) sample by sample.
 */

#ifndef SENTINEL_TELEMETRY_OPENMETRICS_HH
#define SENTINEL_TELEMETRY_OPENMETRICS_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"

namespace sentinel::telemetry {

/** One metric label (key must be a valid OpenMetrics label name). */
struct OmLabel {
    std::string key;
    std::string value;
};

/** One parsed sample line: name, labels, value. */
struct OmSample {
    std::string name;
    std::vector<OmLabel> labels;
    double value = 0.0;

    /** Value of label @p key, or "" when absent. */
    const std::string &label(const std::string &key) const;
};

/**
 * Fold an arbitrary instrument name into the OpenMetrics name charset
 * [a-zA-Z_:][a-zA-Z0-9_:]*: every disallowed byte becomes '_' and a
 * leading digit gains a '_' prefix.  Deterministic and total — hostile
 * names degrade, they never corrupt the exposition.
 */
std::string omSanitizeName(const std::string &name);

/** Escape a label value ('\\', '"' and newlines, per the spec). */
std::string omEscapeLabel(const std::string &value);

/** Canonical float rendering shared by writer and snapshot tests. */
std::string omFormatValue(double v);

/** `# TYPE` line; @p type is "counter", "gauge", "summary", ... */
void omWriteType(std::ostream &os, const std::string &name,
                 const char *type);

/** One sample line: `name{labels} value`. */
void omWriteSample(std::ostream &os, const std::string &name,
                   const std::vector<OmLabel> &labels, double value);

/** The mandatory `# EOF` terminator. */
void omWriteEof(std::ostream &os);

/**
 * Render every instrument of @p metrics: counters as `<name>_total`
 * counters, gauges as gauges, histograms as summaries (quantiles 0.5
 * and 0.99, which are bucket bounds, quantile 1 with the exact max,
 * and _count/_sum).  Instrument names are sanitized; @p labels is
 * attached to every sample.
 */
void writeOpenMetrics(const MetricRegistry &metrics, std::ostream &os,
                      const std::vector<OmLabel> &labels = {});

/**
 * Parse one exposition (or one snapshot frame) back into samples.
 * Comment lines (`#`) and blank lines are skipped.  A sample line is
 * `name[{labels}] value [timestamp]`, the timestamp ignored; anything
 * else sets @p err to "line N: ..." for the first bad line and returns
 * false.  Escaped label values are unescaped.
 */
bool parseOpenMetrics(const std::string &text,
                      std::vector<OmSample> &out, std::string *err);

/**
 * Split a --scrape-out snapshot file into its frames (one exposition
 * per `# EOF`); trailing garbage after the last `# EOF` is ignored.
 */
std::vector<std::string> splitScrapeFrames(const std::string &text);

/** One row of diffSamples(): a sample whose value differs between two
 *  expositions, or that only one of them holds. */
struct OmDiffRow {
    /** `name` or `name{k="v",...}` (labels in written order, values
     *  escaped): the identity samples are matched by. */
    std::string key;
    std::optional<double> a; ///< empty when the sample was added
    std::optional<double> b; ///< empty when the sample was removed
    /** 100 (b - a) / a; 100 when a is 0 and b is not.  Set when both
     *  sides hold the sample. */
    double change_pct = 0.0;
    /** Added, removed, or |change_pct| above the threshold. */
    bool flagged = false;
};

/**
 * Compare two parsed expositions sample by sample, in key order.  A
 * sample present on both sides with an equal value and a change within
 * @p threshold_pct is left out.  Throws std::invalid_argument when one
 * side holds a key twice.
 */
std::vector<OmDiffRow> diffSamples(const std::vector<OmSample> &a,
                                   const std::vector<OmSample> &b,
                                   double threshold_pct);

} // namespace sentinel::telemetry

#endif // SENTINEL_TELEMETRY_OPENMETRICS_HH
