// Exporters: turn a TelemetrySnapshot into the three formats the outside
// world reads — Prometheus text exposition (scrape / promtool), Chrome
// trace-event JSON (about:tracing, Perfetto), and JSONL (one event per
// line, for jq / pandas).  All writers are deterministic: metrics are
// pre-sorted by the registry, events are emitted in non-decreasing
// sim-time order.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "telemetry/telemetry.h"

namespace dufp::telemetry {

// -- Prometheus text exposition (version 0.0.4) -----------------------------

/// Appends the exposition of `metrics`: `# HELP` / `# TYPE` per metric
/// name, one line per series; histograms expand to `_bucket{le=...}`
/// (cumulative), `_sum`, `_count`.
void write_prometheus(const std::vector<MetricSample>& metrics,
                      std::string& out);

/// One part of a merged exposition: a job's samples, sorted by name as
/// MetricsRegistry::collect() returns them, and the value of the label
/// that tells the job's series apart.
struct LabelledSamples {
  std::string label_value;
  const std::vector<MetricSample>* samples = nullptr;
};

/// Appends one exposition of every part's samples, each series labelled
/// `label_key`="<its part's label_value>" after its own labels (before a
/// histogram's `le`).  Samples come out in name order, then part order,
/// then each part's own order: what a stable sort by name of the parts'
/// concatenation gives, as long as every part is sorted by name.  A k-way
/// merge over the parts, so no sample is copied and nothing is sorted.
void write_prometheus_merged(const std::vector<LabelledSamples>& parts,
                             std::string_view label_key, std::string& out);

/// Appends `v` as every exporter prints a number: an integral |v| < 2^53
/// as printf's "%.0f" would (so -0.0 is "-0"), anything else as "%.9g"
/// would, non-finite values included — the same bytes, by std::to_chars.
void append_number(double v, std::string& out);

/// Label-value escaping: backslash, double-quote and newline.
std::string prometheus_escape_label(std::string_view value);

/// Maps an arbitrary string onto the metric-name grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]* (invalid characters become '_'; a leading
/// digit gains a '_' prefix).
std::string sanitize_prometheus_name(std::string_view name);

// -- Chrome trace-event JSON ------------------------------------------------

/// Writes `{"traceEvents":[...]}` with one instant event per recorded
/// event (tid = socket), timestamps in microseconds, sorted
/// non-decreasing, plus process/thread metadata records.  Loads in
/// about:tracing and Perfetto.
void write_chrome_trace(const TelemetrySnapshot& snap, std::ostream& os);

// -- JSONL ------------------------------------------------------------------

/// One JSON object per line per event, time-ordered; dumps are flagged
/// with "dump":true and their trigger time.
void write_jsonl(const TelemetrySnapshot& snap, std::ostream& os);

// -- Flight-recorder dumps --------------------------------------------------

/// Human-readable rendering of one dump (one line per event).
void write_dump(const FlightDump& dump, std::ostream& os);

// -- Convenience ------------------------------------------------------------

/// Writes `<prefix>.prom`, `<prefix>.trace.json`, `<prefix>.jsonl` and
/// one `<prefix>.dump<K>.txt` per flight dump.  Returns the paths
/// written.  Throws std::runtime_error when a file cannot be opened.
std::vector<std::string> export_run(const TelemetrySnapshot& snap,
                                    const std::string& prefix);

}  // namespace dufp::telemetry
