#include "obs/flight.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {

FlightRecorder::FlightRecorder(const TraceRecorder& trace) : trace_(trace) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

FlightRecorder::Snapshot FlightRecorder::capture(std::string reason) const {
  Snapshot snap;
  snap.reason = std::move(reason);
  snap.wall_s = trace_.wall_now();
  snap.vtime_s = sim::vnow();
  snap.spans = trace_.spans();
  return snap;
}

FlightRecorder::Snapshot FlightRecorder::snapshot(std::string reason) {
  Snapshot snap = capture(std::move(reason));
  std::lock_guard lock(mu_);
  snapshots_.push_back(snap);
  while (snapshots_.size() > kMaxSnapshots) {
    snapshots_.erase(snapshots_.begin());
  }
  return snap;
}

std::vector<FlightRecorder::Snapshot> FlightRecorder::snapshots() const {
  std::lock_guard lock(mu_);
  return snapshots_;
}

bool FlightRecorder::has_snapshot() const {
  std::lock_guard lock(mu_);
  return !snapshots_.empty();
}

FlightRecorder::Snapshot FlightRecorder::latest_or_live() const {
  {
    std::lock_guard lock(mu_);
    if (!snapshots_.empty()) return snapshots_.back();
  }
  // No anomaly recorded: capture the ring as it stands, without retaining.
  return capture("live");
}

std::string FlightRecorder::dump_json(const Snapshot& snap) {
  char buf[160];
  std::string head = "{\"flight\":{\"reason\":\"";
  json_escape_into(head, snap.reason);
  std::snprintf(buf, sizeof(buf),
                "\",\"wall_s\":%.9f,\"vtime_s\":%.9f,\"span_count\":%zu},",
                snap.wall_s, snap.vtime_s, snap.spans.size());
  head += buf;
  // Splice the flight header into the standard Chrome trace document —
  // viewers ignore unknown top-level keys, so the dump stays loadable.
  const std::string trace = perfetto_trace_json(snap.spans);
  return head + trace.substr(1);
}

bool FlightRecorder::dump(const std::string& path, const Snapshot& snap) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << dump_json(snap);
  return static_cast<bool>(file);
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  snapshots_.clear();
}

// ------------------------------------------------------------- watchdog ----

LatencyWatchdog& LatencyWatchdog::global() {
  static LatencyWatchdog* watchdog = new LatencyWatchdog();  // never destroyed
  return *watchdog;
}

void LatencyWatchdog::watch(std::string metric, double threshold_s) {
  std::lock_guard lock(mu_);
  for (Watch& w : watches_) {
    if (w.metric == metric) {
      w.threshold_s = threshold_s;
      w.triggered = false;
      return;
    }
  }
  watches_.push_back(Watch{std::move(metric), threshold_s, false});
}

void LatencyWatchdog::clear() {
  std::lock_guard lock(mu_);
  watches_.clear();
}

std::size_t LatencyWatchdog::size() const {
  std::lock_guard lock(mu_);
  return watches_.size();
}

std::size_t LatencyWatchdog::check(const MetricsRegistry& registry) {
  // Snapshot the watch list, test outside the lock (find_histogram and
  // FlightRecorder::snapshot take their own locks), then latch.
  std::vector<std::pair<std::string, double>> due;
  {
    std::lock_guard lock(mu_);
    for (Watch& w : watches_) {
      if (w.triggered) continue;
      due.emplace_back(w.metric, w.threshold_s);
    }
  }
  std::size_t taken = 0;
  for (const auto& [metric, threshold_s] : due) {
    const Histogram* h = registry.find_histogram(metric);
    if (h == nullptr || h->count() == 0) continue;
    const double observed = h->max();
    if (observed <= threshold_s) continue;
    char reason[192];
    std::snprintf(reason, sizeof(reason),
                  "anomaly: %s max %.6fs > %.6fs", metric.c_str(), observed,
                  threshold_s);
    FlightRecorder::global().snapshot(reason);
    ++taken;
    std::lock_guard lock(mu_);
    for (Watch& w : watches_) {
      if (w.metric == metric) w.triggered = true;
    }
  }
  return taken;
}

std::size_t LatencyWatchdog::check() {
  return check(MetricsRegistry::global());
}

}  // namespace ps::obs
