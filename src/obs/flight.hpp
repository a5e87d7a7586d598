// Flight recorder: frozen copies of the trace ring, taken on anomaly.
//
// The TraceRecorder's span deque is the only place spans are kept; the
// FlightRecorder adds no ring of its own. When something goes wrong — an
// SLO breach detected by SloRegistry::evaluate, or a latency-threshold
// anomaly caught by the LatencyWatchdog — the trace ring is frozen into a
// named Snapshot. Snapshots are retained (last kMaxSnapshots) and can be
// written out as a self-contained, Perfetto-loadable Chrome trace JSON
// (`dump`), which is what `psctl flight dump` and the bench harness's
// breach auto-dump emit: CI failures ship the exact offending traces, not
// just a red verdict.
//
// A snapshot holds what the trace ring holds: at most its capacity
// (65,536 spans by default, PROXYSTORE_TRACE_CAP overrides) of the most
// recent spans. A 256-client load_mixed run records ~11k, so the trace
// behind a p999 exemplar is still in the ring when the breach is detected
// at collection time.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace ps::obs {

class MetricsRegistry;

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxSnapshots = 4;

  /// One frozen copy of the trace ring, stamped with why and when it was
  /// taken.
  struct Snapshot {
    std::string reason;
    double wall_s = 0.0;   // the trace recorder's wall_now() at capture
    double vtime_s = 0.0;  // capturing thread's sim::vnow()
    std::vector<SpanRecord> spans;
  };

  /// Freezes the spans of `trace`, which must outlive this recorder.
  explicit FlightRecorder(const TraceRecorder& trace = TraceRecorder::global());

  static FlightRecorder& global();

  /// Freezes the trace ring as a named snapshot (retaining the newest
  /// kMaxSnapshots) and returns a copy of it.
  Snapshot snapshot(std::string reason);

  std::vector<Snapshot> snapshots() const;
  bool has_snapshot() const;

  /// The latest retained snapshot, or a "live" capture of the trace ring
  /// when none has been taken yet.
  Snapshot latest_or_live() const;

  /// `snap` as a self-contained Chrome trace JSON: the usual
  /// {"traceEvents": [...]} document (loadable by Perfetto / the existing
  /// re-parse test) with one extra top-level "flight" object carrying
  /// reason/wall_s/vtime_s/span_count.
  static std::string dump_json(const Snapshot& snap);

  /// Writes dump_json(snap) to `path`; false when unwritable.
  static bool dump(const std::string& path, const Snapshot& snap);

  /// dump(path, latest_or_live()).
  bool dump(const std::string& path) const;

  /// Drops retained snapshots (tests, multi-run tools).
  void clear();

 private:
  /// An unretained capture of the trace ring. Takes only the trace lock.
  Snapshot capture(std::string reason) const;

  const TraceRecorder& trace_;
  mutable std::mutex mu_;
  std::vector<Snapshot> snapshots_;
};

/// Latency-threshold anomaly detector over registry histograms.
///
/// watch() registers "metric's max must stay under threshold_s"; check()
/// re-reads every watched histogram and, on the first crossing of each
/// threshold (latched, so a slow metric triggers one snapshot rather than
/// one per check), freezes the flight recorder with an
/// "anomaly: <metric> max <observed> > <threshold>" reason. The load
/// harness arms it per phase and checks after each phase completes.
class LatencyWatchdog {
 public:
  static LatencyWatchdog& global();

  void watch(std::string metric, double threshold_s);
  void clear();
  std::size_t size() const;

  /// Returns the number of snapshots taken by this call.
  std::size_t check(const MetricsRegistry& registry);
  std::size_t check();

 private:
  struct Watch {
    std::string metric;
    double threshold_s = 0.0;
    bool triggered = false;
  };

  mutable std::mutex mu_;
  std::vector<Watch> watches_;
};

}  // namespace ps::obs
