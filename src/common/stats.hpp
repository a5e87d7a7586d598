// Streaming statistics accumulator used by the benchmark harnesses to report
// mean ± stdev / median rows matching the paper's tables and error bars.
// Every sample is retained, so all statistics — including percentiles — are
// exact.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ps {

class Stats {
 public:
  void add(double x);

  /// Pre-sizes the sample buffer (add() also grows it in doubling chunks,
  /// so tight accumulation loops never reallocate per sample).
  void reserve(std::size_t n);

  std::size_t count() const { return count_; }
  double mean() const;
  double stdev() const;  // sample standard deviation
  double min() const;
  double max() const;
  double median() const;
  double percentile(double p) const;  // p in [0, 100]
  /// quantile(q) == percentile(100 q); q in [0, 1]. The form SLO
  /// objectives and the Prometheus summary exposition speak.
  double quantile(double q) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }
  double sum() const { return sum_; }

  /// "123.4 ± 5.6" formatted with the given unit scale (e.g. 1e3 for ms
  /// when samples are seconds).
  std::string mean_pm_stdev(double scale = 1.0, int precision = 1) const;

  /// Every sample, in insertion order.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> sorted() const;

  std::vector<double> samples_;
  // Exact running accumulators (Welford for the variance).
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double welford_mean_ = 0.0;
  double welford_m2_ = 0.0;
};

}  // namespace ps
