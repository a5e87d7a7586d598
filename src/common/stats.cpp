#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ps {

void Stats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - welford_mean_;
  welford_mean_ += delta / static_cast<double>(count_);
  welford_m2_ += delta * (x - welford_mean_);

  if (samples_.size() == samples_.capacity()) {
    samples_.reserve(samples_.empty() ? 64 : samples_.capacity() * 2);
  }
  samples_.push_back(x);
}

void Stats::reserve(std::size_t n) { samples_.reserve(n); }

double Stats::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double Stats::stdev() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(welford_m2_ / static_cast<double>(count_ - 1));
}

double Stats::min() const { return count_ == 0 ? 0.0 : min_; }

double Stats::max() const { return count_ == 0 ? 0.0 : max_; }

std::vector<double> Stats::sorted() const {
  std::vector<double> s = samples_;
  std::sort(s.begin(), s.end());
  return s;
}

double Stats::median() const { return percentile(50.0); }

double Stats::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  const auto s = sorted();
  const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, s.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double Stats::quantile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile range");
  return percentile(q * 100.0);
}

std::string Stats::mean_pm_stdev(double scale, int precision) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f ± %.*f", precision, mean() * scale,
                precision, stdev() * scale);
  return buf;
}

}  // namespace ps
