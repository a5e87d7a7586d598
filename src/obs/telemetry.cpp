#include "obs/telemetry.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace ps::obs {

namespace {

/// cur - prev clamped at zero; counts the clamp.
std::uint64_t clamped_sub(std::uint64_t cur, std::uint64_t prev,
                          std::uint64_t* clamped) {
  if (cur >= prev) return cur - prev;
  if (clamped != nullptr) ++*clamped;
  return 0;
}

HistogramSnapshot histogram_snapshot_delta(const HistogramSnapshot& prev,
                                           const HistogramSnapshot& cur,
                                           std::uint64_t* clamped) {
  HistogramSnapshot delta;
  delta.count = clamped_sub(cur.count, prev.count, clamped);
  delta.sum_ns = clamped_sub(cur.sum_ns, prev.sum_ns, clamped);
  delta.buckets.resize(cur.buckets.size(), 0);
  for (std::size_t i = 0; i < cur.buckets.size(); ++i) {
    const std::uint64_t before = i < prev.buckets.size() ? prev.buckets[i] : 0;
    delta.buckets[i] = clamped_sub(cur.buckets[i], before, clamped);
  }
  // The window's raw samples are the slice of the shared reservoir between
  // the two cumulative counts — observation order, so concatenating window
  // slices rebuilds the whole-run prefix exactly.
  if (delta.count > 0 && prev.count < Histogram::kReservoir &&
      cur.count > prev.count) {
    const std::size_t lo = static_cast<std::size_t>(prev.count);
    const std::size_t hi = static_cast<std::size_t>(std::min<std::uint64_t>(
        {cur.count, Histogram::kReservoir, cur.reservoir.size()}));
    if (hi > lo) {
      delta.reservoir.assign(cur.reservoir.begin() + lo,
                             cur.reservoir.begin() + hi);
    }
  }
  if (delta.reservoir.size() == delta.count && !delta.reservoir.empty()) {
    // The slice covers the whole window: exact min/max. to_ns matches the
    // rounding observe() applied, so merged windows recompose the
    // cumulative min/max bit for bit.
    delta.min_ns = UINT64_MAX;
    delta.max_ns = 0;
    for (const double s : delta.reservoir) {
      const std::uint64_t ns = to_ns(s);
      delta.min_ns = std::min(delta.min_ns, ns);
      delta.max_ns = std::max(delta.max_ns, ns);
    }
  } else if (delta.count > 0) {
    // Window past the reservoir: fall back to the cumulative extremes
    // (conservative, and still recomposes the run's min/max under merge).
    delta.min_ns = cur.min_ns;
    delta.max_ns = cur.max_ns;
  }
  // Exemplars are cumulative witnesses (max-wins) — carry the current best.
  delta.exemplars = cur.exemplars;
  return delta;
}

}  // namespace

double HistogramSnapshot::percentile(double p) const {
  return histogram_percentile(p, count, reservoir, buckets, max_s());
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum_ns += other.sum_ns;
  if (other.count > 0) {
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
  }
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  for (const double s : other.reservoir) {
    if (reservoir.size() >= Histogram::kReservoir) break;
    reservoir.push_back(s);
  }
  for (const ExemplarSnapshot& ex : other.exemplars) {
    bool placed = false;
    for (ExemplarSnapshot& mine : exemplars) {
      if (mine.bucket != ex.bucket) continue;
      if (ex.value_s > mine.value_s) mine = ex;  // max witness wins
      placed = true;
      break;
    }
    if (!placed) exemplars.push_back(ex);
  }
}

RegistrySnapshot MetricsRegistry::take_snapshot(double vtime_s) const {
  RegistrySnapshot snap;
  snap.vtime_s = vtime_s;
  std::lock_guard lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = GaugeSnapshot{
        gauge->value(), static_cast<std::uint8_t>(gauge->agg())};
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.count = hist->count();
    h.sum_ns = hist->sum_ns();
    h.min_ns = hist->min_ns();
    h.max_ns = hist->max_ns();
    h.buckets = hist->bucket_counts();
    h.reservoir = hist->reservoir_values();
    for (const auto& [le, ex] : hist->exemplars()) {
      ExemplarSnapshot e;
      e.bucket = static_cast<std::uint32_t>(Histogram::bucket_index(le));
      e.value_s = ex.value_s;
      e.trace_hi = ex.trace_hi;
      e.trace_lo = ex.trace_lo;
      e.span_id = ex.span_id;
      e.vtime_s = ex.vtime_s;
      h.exemplars.push_back(e);
    }
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

RegistrySnapshot registry_snapshot_delta(const RegistrySnapshot& prev,
                                         const RegistrySnapshot& cur,
                                         std::uint64_t* clamped) {
  RegistrySnapshot delta;
  delta.vtime_s = cur.vtime_s;
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev.counters.find(name);
    const std::uint64_t before = it == prev.counters.end() ? 0 : it->second;
    delta.counters[name] = clamped_sub(value, before, clamped);
  }
  delta.gauges = cur.gauges;  // point-in-time: never differenced
  for (const auto& [name, hist] : cur.histograms) {
    const auto it = prev.histograms.find(name);
    static const HistogramSnapshot kEmpty;
    delta.histograms[name] = histogram_snapshot_delta(
        it == prev.histograms.end() ? kEmpty : it->second, hist, clamped);
  }
  return delta;
}

RegistrySnapshot merge_registry_snapshots(
    const std::vector<RegistrySnapshot>& snapshots) {
  RegistrySnapshot merged;
  std::map<std::string, double> last_write_vtime;
  for (const RegistrySnapshot& snap : snapshots) {
    merged.vtime_s = std::max(merged.vtime_s, snap.vtime_s);
    for (const auto& [name, value] : snap.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, gauge] : snap.gauges) {
      auto [it, inserted] = merged.gauges.emplace(name, gauge);
      if (inserted) {
        last_write_vtime[name] = snap.vtime_s;
        continue;
      }
      GaugeSnapshot& mine = it->second;
      mine.agg = gauge.agg;  // hints agree across sites by construction
      switch (gauge.agg_hint()) {
        case GaugeAgg::kSum:
          mine.value += gauge.value;
          break;
        case GaugeAgg::kMax:
          mine.value = std::max(mine.value, gauge.value);
          break;
        case GaugeAgg::kLast:
          if (snap.vtime_s >= last_write_vtime[name]) {
            mine.value = gauge.value;
            last_write_vtime[name] = snap.vtime_s;
          }
          break;
      }
    }
    for (const auto& [name, hist] : snap.histograms) {
      merged.histograms[name].merge(hist);
    }
  }
  return merged;
}

// ------------------------------------------------------------- windows ----

TelemetryWindows::TelemetryWindows(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TelemetryWindows::feed(const RegistrySnapshot& cumulative) {
  if (!seeded_) {
    seeded_ = true;
    cumulative_ = cumulative;
    return;
  }
  std::uint64_t clamped = 0;
  Window window;
  window.start_vtime_s = cumulative_.vtime_s;
  window.end_vtime_s = cumulative.vtime_s;
  window.delta = registry_snapshot_delta(cumulative_, cumulative, &clamped);
  if (clamped > 0) {
    clamped_ += clamped;
    MetricsRegistry::ambient().counter("telemetry.rate.clamped").inc(clamped);
  }
  windows_.push_back(std::move(window));
  cumulative_ = cumulative;
  while (windows_.size() > capacity_) windows_.pop_front();
}

RegistrySnapshot TelemetryWindows::merged_last(double span_s) const {
  RegistrySnapshot merged;
  if (windows_.empty()) return merged;
  const double now = windows_.back().end_vtime_s;
  std::vector<RegistrySnapshot> deltas;
  for (const Window& window : windows_) {
    // Strictly-after with a hair of slack so a window ending exactly at
    // now - span_s (common with fixed-interval scrapes) is included.
    if (window.end_vtime_s > now - span_s - 1e-9) {
      deltas.push_back(window.delta);
    }
  }
  return merge_registry_snapshots(deltas);
}

RegistrySnapshot TelemetryWindows::merged_all() const {
  std::vector<RegistrySnapshot> deltas;
  deltas.reserve(windows_.size());
  for (const Window& window : windows_) deltas.push_back(window.delta);
  return merge_registry_snapshots(deltas);
}

// ---------------------------------------------------------- federation ----

namespace {

void append_registry_json(std::string& out, const RegistrySnapshot& snap) {
  out += "{\"vtime_s\":" + fmt_double(snap.vtime_s);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    json_comma(out, first);
    out += "\"";
    json_escape_into(out, name);
    out += "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : snap.gauges) {
    json_comma(out, first);
    out += "\"";
    json_escape_into(out, name);
    out += "\":{\"value\":" + fmt_double(gauge.value);
    out += ",\"agg\":\"" + to_string(gauge.agg_hint()) + "\"}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    json_comma(out, first);
    out += "\"";
    json_escape_into(out, name);
    out += "\":{\"count\":" + std::to_string(hist.count);
    out += ",\"sum_s\":" + fmt_double(hist.sum_s());
    out += ",\"mean_s\":" + fmt_double(hist.mean_s());
    out += ",\"min_s\":" + fmt_double(hist.min_s());
    out += ",\"max_s\":" + fmt_double(hist.max_s());
    out += ",\"p50_s\":" + fmt_double(hist.p50());
    out += ",\"p99_s\":" + fmt_double(hist.p99());
    out += ",\"p999_s\":" + fmt_double(hist.p999()) + "}";
  }
  out += "}}";
}

}  // namespace

std::string federated_metrics_json(
    const std::map<std::string, RegistrySnapshot>& by_site) {
  std::string out = "{\"schema_version\":1,\"sites\":{";
  bool first = true;
  std::vector<RegistrySnapshot> all;
  for (const auto& [site, snap] : by_site) {
    json_comma(out, first);
    out += "\n \"";
    json_escape_into(out, site);
    out += "\":";
    append_registry_json(out, snap);
    all.push_back(snap);
  }
  out += "\n},\"aggregate\":";
  append_registry_json(out, merge_registry_snapshots(all));
  out += "}\n";
  return out;
}

std::string federated_prometheus_text(
    const std::map<std::string, RegistrySnapshot>& by_site) {
  std::string out;

  // Family-major order (one # HELP/# TYPE per family, then one sample per
  // site) keeps the exposition conformant — a family must not repeat.
  std::map<std::string, bool> counter_names;
  std::map<std::string, GaugeAgg> gauge_names;
  std::map<std::string,
           std::vector<std::pair<std::string, const HistogramSnapshot*>>>
      histograms;  // name -> (site label, snapshot) in site order
  for (const auto& [site, snap] : by_site) {
    for (const auto& [name, value] : snap.counters) counter_names[name];
    for (const auto& [name, gauge] : snap.gauges) {
      gauge_names[name] = gauge.agg_hint();
    }
    for (const auto& [name, hist] : snap.histograms) {
      histograms[name].emplace_back(
          "site=\"" + prom_label_escape(site) + "\"", &hist);
    }
  }

  for (const auto& [name, unused] : counter_names) {
    const std::string prom = prom_name(name) + "_total";
    out += "# HELP " + prom + " Monotonic count of " + name +
           " events per site.\n";
    out += "# TYPE " + prom + " counter\n";
    for (const auto& [site, snap] : by_site) {
      const auto it = snap.counters.find(name);
      if (it == snap.counters.end()) continue;
      out += prom + "{site=\"" + prom_label_escape(site) + "\"} " +
             std::to_string(it->second) + "\n";
    }
  }

  std::vector<RegistrySnapshot> all;
  for (const auto& [site, snap] : by_site) all.push_back(snap);
  const RegistrySnapshot aggregate = merge_registry_snapshots(all);
  for (const auto& [name, agg] : gauge_names) {
    const std::string prom = prom_name(name);
    out += "# HELP " + prom + " Instantaneous value of " + name +
           " per site (agg=" + to_string(agg) + ").\n";
    out += "# TYPE " + prom + " gauge\n";
    for (const auto& [site, snap] : by_site) {
      const auto it = snap.gauges.find(name);
      if (it == snap.gauges.end()) continue;
      out += prom + "{site=\"" + prom_label_escape(site) + "\"} " +
             fmt_double(it->second.value) + "\n";
    }
    // The hint-honoring cross-site combination — the one line a scraper
    // without GaugeAgg metadata cannot compute (summing a queue depth
    // across sites would be wrong for agg=last/max).
    const auto it = aggregate.gauges.find(name);
    if (it != aggregate.gauges.end()) {
      out += prom + "{site=\"aggregate\"} " + fmt_double(it->second.value) +
             "\n";
    }
  }

  for (const auto& [name, series] : histograms) {
    append_prom_histogram_family(out, name, " per site", series);
  }

  out += "# EOF\n";
  return out;
}

}  // namespace ps::obs
