// Distributed span collection.
//
// A TraceRecorder keeps closed [start, end] spans produced by
// obs::SpanScope, each carrying a full TraceContext (128-bit trace id, span
// id, parent span id) and the simulated locality (process/host/site) it
// executed in. Because the context rides on the wire (factory descriptors,
// FaaS task records, relay messages, endpoint requests), spans recorded in
// different simulated processes/sites stitch into one causal trace.
//
// Disabled by default: the hot-path cost when off is one relaxed load.
// A proxy's lifecycle is the spans the Store and the descriptor-factory
// resolve path open under its "<store>/<key>" subject, in one trace —
// store.proxy -> proxy.resolve -> store.cache.probe -> store.fetch ->
// store.deserialize — and obs/export.hpp renders spans() as a
// Perfetto-loadable Chrome trace.
// The span deque here is the only copy: the flight recorder
// (obs/flight.hpp) freezes it rather than keeping a ring of its own.
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
  /// Default ceiling on retained spans. Overridable at process start via
  /// PROXYSTORE_TRACE_CAP (positive integer) and at runtime via
  /// set_capacity().
  static constexpr std::size_t kDefaultCapacity = 65536;

  TraceRecorder();

  static TraceRecorder& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends a closed span (no-op while disabled). Oldest spans are
  /// dropped once the buffer exceeds capacity.
  void record_span(SpanRecord span);

  std::vector<SpanRecord> spans() const;
  std::size_t span_count() const;
  void clear();

  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Monotonic count of spans evicted by the capacity ceiling (never reset
  /// by clear(); mirrored into the metrics registry as
  /// "trace.dropped.spans").
  std::uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// Wall seconds since the recorder's origin (the clock span timestamps
  /// are expressed in).
  double wall_now() const;

 private:
  void note_dropped_spans(std::size_t n);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<SpanRecord> spans_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<std::uint64_t> dropped_spans_{0};
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace ps::obs
