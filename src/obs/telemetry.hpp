// Telemetry plane data model: registry snapshots, windowed deltas, and
// cross-site federation (DESIGN.md §12).
//
// A RegistrySnapshot is a deep value copy of one MetricsRegistry at one
// virtual instant. Snapshots compose two ways:
//
//   * in time — registry_snapshot_delta() subtracts two cumulative
//     snapshots of the same registry into a window, and TelemetryWindows
//     keeps a ring of those windows so consumers (psctl top, burn-rate SLO
//     evaluation) can ask "what happened in the last N virtual seconds"
//     instead of "what happened since boot". Deltas subtract in the same
//     integer domains the hot-path atomics accumulate in (counts, ns), so
//     merging every window of a run recomposes the whole-run histogram
//     exactly: count, sum, buckets, and p50/p99/p999 are bit-identical,
//     because the per-window reservoir slices concatenate back into the
//     whole-run sample prefix. A scrape racing a writer can never produce a
//     negative rate: deltas clamp at zero and count each clamp in the
//     scraper's "telemetry.rate.clamped" counter.
//
//   * across space — merge_registry_snapshots() folds N per-process or
//     per-site snapshots into one view: counters sum, histograms merge,
//     exemplars keep the max witness per bucket, and gauges follow their
//     declared GaugeAgg hint (a queue depth must not be summed across
//     sites the way a throughput counter is).
//
// federated_metrics_json() / federated_prometheus_text() render a
// site-keyed snapshot map for machines: every Prometheus sample carries a
// `site` label (escaped, so hostile site names round-trip) and the
// exposition terminates with the OpenMetrics `# EOF` marker.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"

namespace ps::obs {

/// One bucket's trace-linked tail witness in wire form (bucket is the raw
/// index into Histogram::bounds()). Cumulative, like the exemplar it copies:
/// window deltas carry the best witness so far, and merges keep the
/// max-value witness per bucket.
struct ExemplarSnapshot {
  std::uint32_t bucket = 0;
  double value_s = 0.0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  double vtime_s = 0.0;

  auto serde_members() {
    return std::tie(bucket, value_s, trace_hi, trace_lo, span_id, vtime_s);
  }
  auto serde_members() const {
    return std::tie(bucket, value_s, trace_hi, trace_lo, span_id, vtime_s);
  }
};

/// Value copy of one Histogram: the full bucket array (index-aligned with
/// Histogram::bounds()), the raw-sample reservoir prefix, and the integer
/// sum/min/max the atomics maintain. percentile() is Histogram's own
/// routine (histogram_percentile) — Stats-exact while the reservoir holds
/// the whole series, bucket-interpolated beyond it.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = UINT64_MAX;
  std::uint64_t max_ns = 0;
  std::vector<std::uint64_t> buckets;  // Histogram::kBuckets entries
  std::vector<double> reservoir;       // first min(count, kReservoir) samples
  std::vector<ExemplarSnapshot> exemplars;

  auto serde_members() {
    return std::tie(count, sum_ns, min_ns, max_ns, buckets, reservoir,
                    exemplars);
  }
  auto serde_members() const {
    return std::tie(count, sum_ns, min_ns, max_ns, buckets, reservoir,
                    exemplars);
  }

  double sum_s() const { return static_cast<double>(sum_ns) * 1e-9; }
  double mean_s() const {
    return count == 0 ? 0.0 : sum_s() / static_cast<double>(count);
  }
  double min_s() const {
    return min_ns == UINT64_MAX ? 0.0 : static_cast<double>(min_ns) * 1e-9;
  }
  double max_s() const { return static_cast<double>(max_ns) * 1e-9; }

  /// p in [0, 100]; the same routine as Histogram::percentile().
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  /// Accumulates `other` into this snapshot: counts/sums/buckets add,
  /// min/max widen, reservoirs concatenate (capped at Histogram::kReservoir
  /// — append windows in chronological order and the result is exactly the
  /// whole-run sample prefix), exemplars keep the max witness per bucket.
  void merge(const HistogramSnapshot& other);
};

/// Gauge value + aggregation hint in wire form.
struct GaugeSnapshot {
  double value = 0.0;
  std::uint8_t agg = 0;  // GaugeAgg

  auto serde_members() { return std::tie(value, agg); }
  auto serde_members() const { return std::tie(value, agg); }

  GaugeAgg agg_hint() const { return static_cast<GaugeAgg>(agg); }
};

/// Deep value copy of one MetricsRegistry at one virtual instant.
struct RegistrySnapshot {
  double vtime_s = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  auto serde_members() {
    return std::tie(vtime_s, counters, gauges, histograms);
  }
  auto serde_members() const {
    return std::tie(vtime_s, counters, gauges, histograms);
  }

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// One site's registry view on the federation wire: the per-process
/// registries of every process at the site, merged at scrape time.
struct SiteSnapshot {
  std::string site;
  std::string host;        // the telemetry agent's host
  std::size_t processes = 0;  // processes merged into this snapshot
  RegistrySnapshot registry;

  auto serde_members() { return std::tie(site, host, processes, registry); }
  auto serde_members() const {
    return std::tie(site, host, processes, registry);
  }
};

/// `cur - prev` for two cumulative snapshots of the same registry. Counter
/// and histogram deltas clamp at zero (a racing scrape or a registry reset
/// between scrapes must never yield a negative rate); every clamp
/// increments *clamped (when non-null) — TelemetryWindows feeds that into
/// the scraper's "telemetry.rate.clamped" counter. Gauges are point-in-time
/// and carry the current value, never a difference.
RegistrySnapshot registry_snapshot_delta(const RegistrySnapshot& prev,
                                         const RegistrySnapshot& cur,
                                         std::uint64_t* clamped = nullptr);

/// Folds N snapshots into one: counters sum, histograms merge, gauges
/// follow their GaugeAgg hint (last-write resolves by greatest vtime_s).
/// The result's vtime_s is the greatest input vtime.
RegistrySnapshot merge_registry_snapshots(
    const std::vector<RegistrySnapshot>& snapshots);

/// Ring of per-window deltas over one logical registry (one site, or the
/// whole fleet). feed() consumes *cumulative* snapshots — the Prometheus
/// model: the scraped side stays dumb and monotonic, the consumer owns the
/// windowing — and appends the delta window [previous.vtime_s, cur.vtime_s].
class TelemetryWindows {
 public:
  struct Window {
    double start_vtime_s = 0.0;
    double end_vtime_s = 0.0;
    RegistrySnapshot delta;
  };

  explicit TelemetryWindows(std::size_t capacity = 64);

  /// Appends the window between the previously fed snapshot and
  /// `cumulative`. The first feed only seeds the baseline (no window).
  void feed(const RegistrySnapshot& cumulative);

  const std::deque<Window>& windows() const { return windows_; }

  /// Clamp events observed across all feeds (monotonicity violations —
  /// racing scrapes or registry resets).
  std::uint64_t clamped() const { return clamped_; }

  /// Merges every retained window whose end lies in (now - span_s, now],
  /// where now is the latest window end. Windows straddling the boundary
  /// are included whole (windows are the quantum of this layer).
  RegistrySnapshot merged_last(double span_s) const;

  /// Merges all retained windows (== the whole run while nothing has been
  /// evicted from the ring).
  RegistrySnapshot merged_all() const;

 private:
  std::size_t capacity_;
  bool seeded_ = false;
  RegistrySnapshot cumulative_;
  std::deque<Window> windows_;
  std::uint64_t clamped_ = 0;
};

/// {"schema_version":1,"sites":{<site>:{...}},"aggregate":{...}} — the
/// aggregate is merge_registry_snapshots() over the sites (gauge hints
/// honored). Site names and metric names are JSON-escaped.
std::string federated_metrics_json(
    const std::map<std::string, RegistrySnapshot>& by_site);

/// Prometheus text exposition with a `site` label on every sample
/// (label-escaped, so hostile site names round-trip). Gauges additionally
/// emit one site="aggregate" sample combined per their GaugeAgg hint —
/// the one aggregation a hint-blind scraper cannot derive. Terminated with
/// the OpenMetrics `# EOF` marker.
std::string federated_prometheus_text(
    const std::map<std::string, RegistrySnapshot>& by_site);

}  // namespace ps::obs
