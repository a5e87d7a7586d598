#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stats.hpp"
#include "obs/json.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {

namespace {

std::atomic<bool> g_enabled{true};

/// Bucket bounds: 100 ns .. 1000 s, four per decade (10 decades).
std::array<double, Histogram::kBuckets> make_bounds() {
  std::array<double, Histogram::kBuckets> bounds{};
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = 1e-7 * std::pow(10.0, static_cast<double>(i + 1) / 4.0);
  }
  return bounds;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::string to_string(GaugeAgg agg) {
  switch (agg) {
    case GaugeAgg::kLast:
      return "last";
    case GaugeAgg::kSum:
      return "sum";
    case GaugeAgg::kMax:
      return "max";
  }
  return "last";
}

namespace {
thread_local MetricsRegistry* t_ambient_registry = nullptr;
}  // namespace

MetricsRegistry* set_ambient_registry(MetricsRegistry* registry) {
  MetricsRegistry* previous = t_ambient_registry;
  t_ambient_registry = registry;
  return previous;
}

MetricsRegistry* scoped_registry() { return t_ambient_registry; }

// ------------------------------------------------------------ histogram ----

const std::array<double, Histogram::kBuckets>& Histogram::bounds() {
  static const std::array<double, kBuckets> kBounds = make_bounds();
  return kBounds;
}

std::size_t Histogram::bucket_index(double seconds) {
  const auto& b = bounds();
  const auto it = std::lower_bound(b.begin(), b.end(), seconds);
  if (it == b.end()) return kBuckets - 1;
  return static_cast<std::size_t>(it - b.begin());
}

void Histogram::observe(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  const std::size_t bucket = bucket_index(seconds);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t ns = to_ns(seconds);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = min_ns_.load(std::memory_order_relaxed);
  while (ns < seen &&
         !min_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  const std::uint64_t idx = count_.fetch_add(1, std::memory_order_relaxed);
  if (idx < kReservoir) {
    reservoir_[idx].store(seconds, std::memory_order_relaxed);
  }
  maybe_exemplar(bucket, seconds);
}

void Histogram::maybe_exemplar(std::size_t bucket, double seconds) {
  // Lock-free fast path: a non-improving sample never takes the mutex.
  if (seconds <= exemplar_best_[bucket].load(std::memory_order_relaxed)) {
    return;
  }
  const TraceContext ctx = current_context();
  if (!ctx.valid()) return;  // no trace to link — not exemplar material
  std::lock_guard lock(exemplar_mu_);
  if (seconds <= exemplar_best_[bucket].load(std::memory_order_relaxed)) {
    return;  // lost the race to a larger sample
  }
  exemplar_best_[bucket].store(seconds, std::memory_order_relaxed);
  Exemplar& slot = exemplar_slots_[bucket];
  slot.bucket = static_cast<std::uint32_t>(bucket);
  slot.value_s = seconds;
  slot.trace_hi = ctx.trace_hi;
  slot.trace_lo = ctx.trace_lo;
  slot.span_id = ctx.span_id;
  slot.vtime_s = sim::vnow();
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  return sum() / static_cast<double>(n);
}

double Histogram::min() const {
  const std::uint64_t ns = min_ns_.load(std::memory_order_relaxed);
  if (ns == UINT64_MAX) return 0.0;
  return static_cast<double>(ns) * 1e-9;
}

double Histogram::max() const {
  return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double histogram_percentile(double p, std::uint64_t count,
                            const std::vector<double>& reservoir,
                            const std::vector<std::uint64_t>& buckets,
                            double max_s) {
  if (count == 0) return 0.0;
  if (count <= Histogram::kReservoir && reservoir.size() == count) {
    // Exact path: the whole series is in the reservoir.
    Stats stats;
    stats.reserve(reservoir.size());
    for (const double s : reservoir) stats.add(s);
    return stats.percentile(p);
  }
  // Interpolated path: walk the cumulative bucket counts.
  const auto& bounds = Histogram::bounds();
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size() && i < bounds.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) > rank) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
    cumulative += in_bucket;
  }
  return max_s;
}

double Histogram::percentile(double p) const {
  return histogram_percentile(p, count(), reservoir_values(), bucket_counts(),
                              max());
}

std::vector<std::pair<double, std::uint64_t>> Histogram::nonzero_buckets()
    const {
  std::vector<std::pair<double, std::uint64_t>> out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n > 0) out.emplace_back(bounds()[i], n);
  }
  return out;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> Histogram::reservoir_values() const {
  // Exact when the registry is quiescent (the deterministic benches). A
  // scrape racing a writer may see a claimed-but-unwritten slot as 0.0 —
  // never a torn value, and the windowing layer clamps rather than trusts
  // cross-snapshot invariants, so racing scrapes degrade gracefully.
  const std::uint64_t n = std::min<std::uint64_t>(count(), kReservoir);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(reservoir_[i].load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> out;
  std::lock_guard lock(exemplar_mu_);
  for (const Exemplar& slot : exemplar_slots_) {
    if (slot.valid()) out.push_back(slot);
  }
  return out;
}

Exemplar Histogram::max_exemplar() const {
  Exemplar best;
  std::lock_guard lock(exemplar_mu_);
  for (const Exemplar& slot : exemplar_slots_) {
    if (slot.valid() && (!best.valid() || slot.value_s > best.value_s)) {
      best = slot;
    }
  }
  return best;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
  std::lock_guard lock(exemplar_mu_);
  for (auto& best : exemplar_best_) {
    best.store(-1.0, std::memory_order_relaxed);
  }
  for (Exemplar& slot : exemplar_slots_) slot = Exemplar{};
}

// ------------------------------------------------------------- registry ----

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry& MetricsRegistry::ambient() {
  MetricsRegistry* scoped = scoped_registry();
  return scoped != nullptr ? *scoped : global();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, GaugeAgg agg) {
  Gauge& g = gauge(name);
  g.set_agg(agg);
  return g;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  std::lock_guard lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::dump_json() const {
  std::lock_guard lock(mu_);
  // schema_version history: v2 added this field plus the shared
  // "bucket_bounds_s" array (all histogram bucket upper bounds, so
  // per-histogram "buckets" [le, count] pairs can be mapped back to raw
  // bucket indices); v3 adds the per-histogram "exemplars" array linking
  // each bucket's worst sample to its trace/span.
  std::string out = "{\"schema_version\":3,\"bucket_bounds_s\":[";
  bool first_bound = true;
  for (const double bound : Histogram::bounds()) {
    json_comma(out, first_bound);
    out += fmt_double(bound);
  }
  out += "],\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    json_comma(out, first);
    out += "\"";
    json_escape_into(out, name);
    out += "\":" + std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    json_comma(out, first);
    out += "\"";
    json_escape_into(out, name);
    out += "\":" + fmt_double(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    json_comma(out, first);
    out += "\"";
    json_escape_into(out, name);
    out += "\":{\"count\":" + std::to_string(hist->count());
    out += ",\"sum_s\":" + fmt_double(hist->sum());
    out += ",\"mean_s\":" + fmt_double(hist->mean());
    out += ",\"min_s\":" + fmt_double(hist->min());
    out += ",\"max_s\":" + fmt_double(hist->max());
    out += ",\"p50_s\":" + fmt_double(hist->p50());
    out += ",\"p95_s\":" + fmt_double(hist->p95());
    out += ",\"p99_s\":" + fmt_double(hist->p99());
    out += ",\"p999_s\":" + fmt_double(hist->p999());
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [le, n] : hist->nonzero_buckets()) {
      json_comma(out, first_bucket);
      out += "[" + fmt_double(le) + "," + std::to_string(n) + "]";
    }
    out += "],\"exemplars\":[";
    bool first_exemplar = true;
    for (const Exemplar& ex : hist->exemplars()) {
      json_comma(out, first_exemplar);
      out += "{\"le\":" + fmt_double(Histogram::bounds()[ex.bucket]);
      out += ",\"value_s\":" + fmt_double(ex.value_s);
      out += ",\"trace_id\":\"" + ex.trace_id_hex() + "\"";
      out += ",\"span_id\":" + std::to_string(ex.span_id);
      out += ",\"vtime_s\":" + fmt_double(ex.vtime_s) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string fmt_latency(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  }
  return buf;
}

std::string MetricsRegistry::dump_table() const {
  std::lock_guard lock(mu_);
  std::string out;
  char line[256];
  if (!counters_.empty()) {
    out += "-- counters ------------------------------------------------\n";
    for (const auto& [name, counter] : counters_) {
      std::snprintf(line, sizeof(line), "%-44s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(counter->value()));
      out += line;
    }
  }
  if (!gauges_.empty()) {
    out += "-- gauges --------------------------------------------------\n";
    for (const auto& [name, gauge] : gauges_) {
      std::snprintf(line, sizeof(line), "%-44s %12.3f\n", name.c_str(),
                    gauge->value());
      out += line;
    }
  }
  if (!histograms_.empty()) {
    out += "-- histograms ----------------------------------------------\n";
    std::snprintf(line, sizeof(line), "%-44s %8s %10s %10s %10s %10s %10s\n",
                  "name", "count", "mean", "p50", "p95", "p99", "max");
    out += line;
    for (const auto& [name, hist] : histograms_) {
      std::snprintf(line, sizeof(line),
                    "%-44s %8llu %10s %10s %10s %10s %10s\n", name.c_str(),
                    static_cast<unsigned long long>(hist->count()),
                    fmt_latency(hist->mean()).c_str(),
                    fmt_latency(hist->p50()).c_str(),
                    fmt_latency(hist->p95()).c_str(),
                    fmt_latency(hist->p99()).c_str(),
                    fmt_latency(hist->max()).c_str());
      out += line;
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

}  // namespace ps::obs
