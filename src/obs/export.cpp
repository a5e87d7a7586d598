#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ps::obs {

namespace {

// Microseconds with nanosecond resolution — the unit of trace-event ts/dur.
std::string fmt_us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

void append_metadata(std::string& out, bool& first, int pid, int tid,
                     const char* what, const std::string& label) {
  json_comma(out, first, ",\n");
  out += "{\"ph\":\"M\",\"pid\":";
  out += std::to_string(pid);
  if (tid >= 0) {
    out += ",\"tid\":";
    out += std::to_string(tid);
  }
  out += ",\"name\":\"";
  out += what;
  out += "\",\"args\":{\"name\":\"";
  json_escape_into(out, label);
  out += "\"}}";
}

void append_slice(std::string& out, bool& first, const SpanRecord& span,
                  int pid, int tid, double start_s, double end_s) {
  json_comma(out, first, ",\n");
  double dur = end_s - start_s;
  if (dur < 0.0) dur = 0.0;
  out += "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"";
  json_escape_into(out, span.name);
  out += "\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  out += fmt_us(start_s);
  out += ",\"dur\":";
  out += fmt_us(dur);
  out += ",\"args\":{\"trace_id\":\"";
  out += span.ctx.trace_id_hex();
  out += "\",\"span_id\":";
  out += std::to_string(span.ctx.span_id);
  out += ",\"parent_span_id\":";
  out += std::to_string(span.ctx.parent_span_id);
  if (!span.kind.empty()) {
    out += ",\"kind\":\"";
    json_escape_into(out, span.kind);
    out += "\"";
  }
  out += ",\"process\":\"";
  json_escape_into(out, span.process);
  out += "\",\"host\":\"";
  json_escape_into(out, span.host);
  out += "\",\"site\":\"";
  json_escape_into(out, span.site);
  if (!span.subject.empty()) {
    out += "\",\"subject\":\"";
    json_escape_into(out, span.subject);
  }
  out += "\"}}";
}

// The text exposition format escapes backslash and newline everywhere, and
// the double quote only inside label values.
std::string prom_escape(const std::string& text, bool quote) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '"' && quote) {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string prom_label_escape(const std::string& value) {
  return prom_escape(value, /*quote=*/true);
}

std::string prom_help_escape(const std::string& text) {
  return prom_escape(text, /*quote=*/false);
}

std::string prom_name(const std::string& name) {
  std::string out = "ps_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string perfetto_trace_json(const TraceRecorder& recorder) {
  return perfetto_trace_json(recorder.spans());
}

std::string perfetto_trace_json(const std::vector<SpanRecord>& spans) {
  // Sites become Perfetto processes; each gets a virtual-time pid (1-based)
  // and a wall-clock pid offset by 1000. Simulated processes become threads.
  std::map<std::string, int> site_pid;
  std::map<std::pair<std::string, std::string>, int> actor_tid;
  for (const SpanRecord& span : spans) {
    site_pid.emplace(span.site, 0);
    actor_tid.emplace(std::make_pair(span.site, span.process), 0);
  }
  int next_pid = 1;
  for (auto& [site, pid] : site_pid) pid = next_pid++;
  int next_tid = 1;
  for (auto& [actor, tid] : actor_tid) tid = next_tid++;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [site, pid] : site_pid) {
    append_metadata(out, first, pid, -1, "process_name", site + " [vtime]");
    append_metadata(out, first, pid + 1000, -1, "process_name",
                    site + " [wall]");
  }
  for (const auto& [actor, tid] : actor_tid) {
    const int pid = site_pid[actor.first];
    append_metadata(out, first, pid, tid, "thread_name", actor.second);
    append_metadata(out, first, pid + 1000, tid, "thread_name", actor.second);
  }
  for (const SpanRecord& span : spans) {
    const int pid = site_pid[span.site];
    const int tid = actor_tid[std::make_pair(span.site, span.process)];
    append_slice(out, first, span, pid, tid, span.vtime_start, span.vtime_end);
    append_slice(out, first, span, pid + 1000, tid, span.wall_start,
                 span.wall_end);
  }
  out += "\n]}\n";
  return out;
}

bool write_perfetto_trace(const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << perfetto_trace_json(TraceRecorder::global());
  return static_cast<bool>(file);
}

void append_prom_histogram_family(
    std::string& out, const std::string& name, const std::string& help_scope,
    const std::vector<std::pair<std::string, const HistogramSnapshot*>>&
        series) {
  const auto& bounds = Histogram::bounds();
  const std::string prom = prom_name(name) + "_seconds";
  out += "# HELP " + prom + " Latency distribution of " +
         prom_help_escape(name) + " in seconds" + help_scope + ".\n";
  out += "# TYPE " + prom + " histogram\n";
  // Companion summary family, written after the histogram's: precomputed
  // tail quantiles so scrapers and SLO dashboards need not reconstruct
  // percentiles from the log-spaced buckets. A distinct family name keeps
  // both expositions conformant (one # TYPE per family).
  const std::string quantiles = prom_name(name) + "_quantiles_seconds";
  std::string summary = "# HELP " + quantiles + " Latency quantiles of " +
                        prom_help_escape(name) + " in seconds" + help_scope +
                        ".\n# TYPE " + quantiles + " summary\n";
  for (const auto& [labels, hist] : series) {
    // `{le="..."}` and `{quantile="..."}` follow the series labels;
    // `_sum`/`_count` carry them alone, or no braces when there are none.
    const std::string lead = labels.empty() ? "{" : "{" + labels + ",";
    const std::string own = labels.empty() ? "" : "{" + labels + "}";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < hist->buckets.size() && i < bounds.size();
         ++i) {
      if (hist->buckets[i] == 0) continue;
      cumulative += hist->buckets[i];
      out += prom + "_bucket" + lead + "le=\"" + fmt_double(bounds[i]) +
             "\"} " + std::to_string(cumulative);
      // A trace-linked exemplar rides after the count, OpenMetrics-style;
      // exemplar-free buckets keep the plain exposition.
      for (const Exemplar& ex : hist->exemplars) {
        if (ex.bucket != i) continue;
        out += " # {trace_id=\"" + ex.trace_id_hex() + "\",span_id=\"" +
               std::to_string(ex.span_id) + "\"} " + fmt_double(ex.value_s) +
               " " + fmt_double(ex.vtime_s);
        break;
      }
      out += "\n";
    }
    const std::string count = std::to_string(hist->count);
    const std::string sum = fmt_double(hist->sum_s());
    out += prom + "_bucket" + lead + "le=\"+Inf\"} " + count + "\n";
    out += prom + "_sum" + own + " " + sum + "\n";
    out += prom + "_count" + own + " " + count + "\n";
    for (const double q : {0.5, 0.99, 0.999}) {
      summary += quantiles + lead + "quantile=\"" + fmt_double(q) + "\"} " +
                 fmt_double(hist->percentile(q * 100.0)) + "\n";
    }
    summary += quantiles + "_sum" + own + " " + sum + "\n";
    summary += quantiles + "_count" + own + " " + count + "\n";
  }
  out += summary;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  const RegistrySnapshot snap = registry.take_snapshot(0.0);
  std::string out;

  // Conformance notes (also checked by tests/obs_test.cpp): every metric
  // family gets `# HELP` then `# TYPE`, counters carry the `_total` suffix,
  // and histograms expose cumulative `_bucket` counts ending in `+Inf`.
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prom_name(name) + "_total";
    out += "# HELP " + prom + " Monotonic count of " + prom_help_escape(name) +
           " events.\n";
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, gauge] : snap.gauges) {
    const std::string prom = prom_name(name);
    out += "# HELP " + prom + " Instantaneous value of " +
           prom_help_escape(name) + ".\n";
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + fmt_double(gauge.value) + "\n";
  }

  for (const auto& [name, hist] : snap.histograms) {
    append_prom_histogram_family(out, name, "", {{"", &hist}});
  }
  return out;
}

}  // namespace ps::obs
