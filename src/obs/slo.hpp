// Service-level objectives over the live metrics registry.
//
// An SloObjective is a declarative bound on one tail quantile of one
// latency histogram: "resolve_batch p999 stays under 50 ms of virtual time
// once at least 64 samples exist". Objectives are declared by whoever owns
// the workload (the load harness's scenario phases, psctl's demo set, a
// service's startup code) into an SloRegistry; evaluate() reads the
// current Histogram reservoirs and produces one verdict per objective:
//
//   pass               observed <= threshold (and enough samples)
//   breach             observed >  threshold
//   insufficient_data  fewer than min_samples observations (never failing
//                      by itself — an absent metric is reported, not
//                      silently dropped)
//
// Verdicts travel two ways: `psctl slo [--json]` renders the report for
// humans and dashboards, and collect_bench_artifact() embeds it in every
// BENCH_*.json artifact (schema v2), where `psctl bench diff` turns any
// breach into a nonzero exit — the CI SLO gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ps::obs {

class MetricsRegistry;
class TelemetryWindows;

/// The quantiles an objective may bound, evaluated through
/// Histogram::percentile() (HistogramSnapshot's for burn-rate windows).
inline constexpr const char* kSloPercentiles[] = {"p50", "p99", "p999"};

struct SloObjective {
  /// Stable identifier, by convention "<metric-ish>.<percentile>"
  /// (e.g. "load.hotkey.op.p99"). Unique within a registry.
  std::string name;
  /// Histogram name in the MetricsRegistry the objective reads.
  std::string metric;
  /// One of "p50", "p99", "p999".
  std::string percentile;
  /// Upper bound on the observed quantile, in the histogram's unit
  /// (seconds for latency series).
  double threshold_s = 0.0;
  /// Verdicts are "insufficient_data" until the histogram holds at least
  /// this many samples; a tail bound over three observations is noise.
  std::uint64_t min_samples = 1;
  /// Multi-window burn-rate evaluation (evaluate_burn): the objective is in
  /// breach only when the observed quantile exceeds threshold_s over BOTH
  /// the trailing fast window and the trailing slow window — the classic
  /// fast-window/slow-window pairing that makes alerts fire quickly on a
  /// real regression while a single noisy window cannot page. Both zero
  /// (the default) means the objective is whole-run only; evaluate_burn
  /// skips it. Appended last so positional aggregate initialization of the
  /// original five fields stays valid.
  double burn_fast_window_s = 0.0;
  double burn_slow_window_s = 0.0;
};

enum class SloStatus { kPass, kBreach, kInsufficientData };

/// "pass" | "breach" | "insufficient_data".
std::string to_string(SloStatus status);

struct SloVerdict {
  SloObjective objective;
  SloStatus status = SloStatus::kInsufficientData;
  /// The quantile actually observed (0 when the metric is absent). For
  /// burn-rate verdicts this is the fast-window quantile.
  double observed_s = 0.0;
  /// Samples in the histogram at evaluation time (fast window for
  /// burn-rate verdicts).
  std::uint64_t samples = 0;
  /// The slow-window quantile (burn-rate verdicts only; 0 otherwise).
  double slow_observed_s = 0.0;
};

struct SloReport {
  std::vector<SloVerdict> verdicts;

  std::size_t breaches() const;
  std::size_t insufficient() const;
  /// True when no objective is in breach (insufficient data does not fail).
  bool passed() const { return breaches() == 0; }

  /// Columnar rendering for `psctl slo`.
  std::string table() const;
};

/// {"slos": [{name, metric, percentile, threshold_s, min_samples, status,
/// observed_s, samples}, ...], "breaches": n, "passed": 0|1}.
std::string slo_report_json(const SloReport& report);

/// Prometheus text exposition of a report: one `ps_slo_status{objective=
/// "..."}` gauge per verdict (0 = pass, 1 = breach, 2 = insufficient_data)
/// plus companion `ps_slo_observed_seconds` / `ps_slo_threshold_seconds`
/// gauges, so the load-harness gates are scrapeable alongside the metrics
/// they bound. Objective names are label-escaped.
std::string slo_prometheus_text(const SloReport& report);

/// Named-objective registry. Like the metrics registry there is one global
/// instance; scenario phases declare into it and the artifact collector
/// evaluates it at the end of the run.
class SloRegistry {
 public:
  static SloRegistry& global();

  /// Registers (or, by name, replaces) an objective. Throws ps::Error on an
  /// empty name/metric, an unknown percentile, or a non-positive threshold.
  void declare(SloObjective objective);

  /// Removes one objective by name; false when unknown.
  bool remove(const std::string& name);

  /// Drops every objective (tests and multi-run tools).
  void clear();

  std::vector<SloObjective> objectives() const;
  std::size_t size() const;

  /// Reads the current histogram state and produces one verdict per
  /// objective, in declaration order.
  SloReport evaluate(const MetricsRegistry& registry) const;
  SloReport evaluate() const;

  /// Multi-window burn-rate evaluation over windowed telemetry. For every
  /// objective with burn windows configured, reads the merged trailing
  /// fast and slow windows out of `windows` and reports:
  ///
  ///   breach             BOTH window quantiles exceed threshold_s
  ///   insufficient_data  either window holds fewer than min_samples
  ///   pass               otherwise
  ///
  /// Objectives without burn windows are skipped (they remain whole-run
  /// objectives for evaluate()). A breach freezes the flight recorder,
  /// same as evaluate().
  SloReport evaluate_burn(const TelemetryWindows& windows) const;

 private:
  mutable std::mutex mu_;
  std::vector<SloObjective> objectives_;
};

/// True when `percentile` is one of kSloPercentiles.
bool valid_slo_percentile(const std::string& percentile);

}  // namespace ps::obs
