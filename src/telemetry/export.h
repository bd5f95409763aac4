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

/// `# HELP` / `# TYPE` per metric name, one line per series; histograms
/// expand to `_bucket{le=...}` (cumulative), `_sum`, `_count`.
void write_prometheus(const std::vector<MetricSample>& metrics,
                      std::ostream& os);

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
