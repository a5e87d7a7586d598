// Exporters: Chrome trace-event (Perfetto) JSON and Prometheus text format.
//
// `perfetto_trace_json` renders TraceRecorder spans as a Chrome
// trace-event file (the JSON format Perfetto's UI and chrome://tracing
// load natively). Each simulated site becomes a Perfetto "process" and each
// simulated process a "thread" within it, so the cross-site causal path of
// one trace reads as slices spread across site-labelled tracks. Every span
// is emitted twice: once on a virtual-time track (pid = 1 + site index,
// what the simulator says the distributed timing was) and once on a
// wall-clock track (pid = 1001 + site index, what the host actually spent).
// Slice args carry trace_id/span_id/parent_span_id so causal edges survive
// the export.
//
// `prometheus_text` renders a MetricsRegistry snapshot in the Prometheus
// text exposition format (counters, gauges, and histograms with cumulative
// `_bucket{le=...}` series), suitable for a textfile collector or diffing
// in tests.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ps::obs {

class TraceRecorder;
class MetricsRegistry;
struct HistogramSnapshot;
struct SpanRecord;

/// Chrome trace-event JSON ({"displayTimeUnit":"ms","traceEvents":[...]})
/// of all spans currently held by `recorder`.
std::string perfetto_trace_json(const TraceRecorder& recorder);

/// Same rendering over an explicit span set (flight-recorder snapshots,
/// tests) — no recorder needed.
std::string perfetto_trace_json(const std::vector<SpanRecord>& spans);

/// Writes perfetto_trace_json(TraceRecorder::global()) to `path`.
/// Returns false if the file cannot be written.
bool write_perfetto_trace(const std::string& path);

/// Prometheus label *value* escaping per the text exposition format:
/// backslash -> \\, double-quote -> \", newline -> \n. Everything emitting
/// `{label="value"}` pairs must route values through this.
std::string prom_label_escape(const std::string& value);

/// Prometheus `# HELP` text escaping per the text exposition format:
/// backslash -> \\, newline -> \n. Every HELP line routes the metric name
/// it quotes through this, so a hostile name cannot split the line.
std::string prom_help_escape(const std::string& text);

/// Prometheus metric name: `ps_` + `name` with every byte outside
/// [a-zA-Z0-9_:] replaced by '_'.
std::string prom_name(const std::string& name);

/// Writes the histogram family `<prom_name(name)>_seconds` — HELP, TYPE,
/// then per series its cumulative `_bucket` lines (exemplar-annotated where
/// a bucket holds one), `+Inf`, `_sum` and `_count` — followed by its
/// companion `_quantiles_seconds` summary family (p50/p99/p999, `_sum`,
/// `_count`). Each series pairs a label prefix (empty, or e.g.
/// `site="..."`, already escaped) with its snapshot; `help_scope` ends both
/// HELP sentences (" per site" for the federated exposition).
void append_prom_histogram_family(
    std::string& out, const std::string& name, const std::string& help_scope,
    const std::vector<std::pair<std::string, const HistogramSnapshot*>>&
        series);

/// Prometheus text exposition of every registered metric. Metric names are
/// sanitized (dots -> underscores) and prefixed `ps_`; histograms are
/// exported in seconds with a `_seconds` suffix. Buckets holding an
/// exemplar carry an OpenMetrics-style annotation —
/// `... # {trace_id="...",span_id="..."} <value> <vtime>` — linking the
/// bucket's worst sample to its trace.
std::string prometheus_text(const MetricsRegistry& registry);

}  // namespace ps::obs
