// Proxy lifecycle tracing and distributed span collection.
//
// A TraceRecorder captures two kinds of records:
//   * instant events — per-subject lifecycle points (a subject is a
//     "<store>/<key>" string minted when a proxy is created), each stamped
//     with wall time (steady-clock seconds since recorder construction) and
//     the recording thread's virtual time, plus the thread's active
//     TraceContext so events attribute to the span they occurred under;
//   * spans — closed [start, end] intervals produced by obs::SpanScope,
//     carrying a full TraceContext (128-bit trace id, span id, parent span
//     id) and the simulated locality (process/host/site) they executed in.
//     Because the context rides on the wire (factory descriptors, FaaS task
//     records, relay messages, endpoint requests), spans recorded in
//     different simulated processes/sites stitch into one causal trace.
//
// Disabled by default: the hot-path cost when off is one relaxed load.
// The Store and descriptor-factory resolve path emit the canonical
// lifecycle — proxy.created -> factory.serialized -> factory.deserialized ->
// resolve.start -> connector.get -> deserialize -> cache.insert ->
// resolve.done — so `timeline()` reconstructs where a resolve spent its
// time across processes, and obs/export.hpp renders spans() as a
// Perfetto-loadable Chrome trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/context.hpp"

namespace ps::obs {

struct TraceEvent {
  std::string subject;  // e.g. "store-name/key-canonical"
  std::string name;     // e.g. "resolve.start"
  double wall_s = 0.0;  // steady seconds since the recorder's origin
  double vtime_s = 0.0;  // recording thread's sim::vnow()
  /// The thread's active trace context at record time (invalid when the
  /// event occurred outside any span).
  TraceContext ctx;
};

/// One closed span: a named interval executed in one simulated locality,
/// causally positioned by its TraceContext.
struct SpanRecord {
  TraceContext ctx;
  std::string name;     // e.g. "faas.submit", "proxy.resolve"
  std::string subject;  // optional "<store>/<key>" attribution
  /// Critical-path segment this span's self-time belongs to (e.g.
  /// "wire-transfer", "serde", "executor-queue"); empty means the
  /// CriticalPath analyzer classifies by span name, falling back to
  /// "other". See obs/critical.hpp for the taxonomy.
  std::string kind;
  std::string process;  // simulated process the span ran in
  std::string host;     // fabric host
  std::string site;     // fabric site
  double wall_start = 0.0;
  double wall_end = 0.0;
  double vtime_start = 0.0;
  double vtime_end = 0.0;
};

class TraceRecorder {
 public:
  /// Default ceiling on retained events and spans (each). Overridable at
  /// process start via PROXYSTORE_TRACE_CAP (positive integer) and at
  /// runtime via set_capacity().
  static constexpr std::size_t kDefaultCapacity = 65536;

  TraceRecorder();

  static TraceRecorder& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends an event (no-op while disabled). Oldest events are dropped
  /// once the buffer exceeds capacity.
  void record(const std::string& subject, const std::string& event);

  /// Appends a closed span (no-op while disabled). Oldest spans are
  /// dropped once the buffer exceeds capacity.
  void record_span(SpanRecord span);

  /// All events for one subject, in record order.
  std::vector<TraceEvent> timeline(const std::string& subject) const;

  std::vector<SpanRecord> spans() const;
  std::size_t size() const;
  std::size_t span_count() const;
  void clear();

  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Monotonic counts of records evicted by the capacity ceiling (never
  /// reset by clear(); mirrored into the metrics registry as
  /// "trace.dropped.events" / "trace.dropped.spans").
  std::uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// Wall seconds since the recorder's origin (the clock span timestamps
  /// are expressed in).
  double wall_now() const;

 private:
  void note_dropped_events(std::size_t n);
  void note_dropped_spans(std::size_t n);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  std::deque<SpanRecord> spans_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<std::uint64_t> dropped_events_{0};
  std::atomic<std::uint64_t> dropped_spans_{0};
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace ps::obs
