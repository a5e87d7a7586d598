#include "obs/trace.hpp"

#include <cstdlib>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {

TraceRecorder::TraceRecorder() {
  if (const char* cap = std::getenv("PROXYSTORE_TRACE_CAP")) {
    const unsigned long long v = std::strtoull(cap, nullptr, 10);
    if (v > 0) capacity_ = static_cast<std::size_t>(v);
  }
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

void TraceRecorder::note_dropped_events(std::size_t n) {
  if (n == 0) return;
  dropped_events_.fetch_add(n, std::memory_order_relaxed);
  // Lazily resolved once: registry references stay valid for process life.
  static Counter& counter =
      MetricsRegistry::global().counter("trace.dropped.events");
  counter.inc(n);
}

void TraceRecorder::note_dropped_spans(std::size_t n) {
  if (n == 0) return;
  dropped_spans_.fetch_add(n, std::memory_order_relaxed);
  static Counter& counter =
      MetricsRegistry::global().counter("trace.dropped.spans");
  counter.inc(n);
}

void TraceRecorder::record(const std::string& subject,
                           const std::string& event) {
  if (!enabled()) return;
  TraceEvent e;
  e.subject = subject;
  e.name = event;
  e.wall_s = wall_now();
  e.vtime_s = sim::vnow();
  e.ctx = current_context();
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    events_.push_back(std::move(e));
    while (events_.size() > capacity_) {
      events_.pop_front();
      ++dropped;
    }
  }
  note_dropped_events(dropped);
}

void TraceRecorder::record_span(SpanRecord span) {
  if (!enabled()) return;
  // The flight recorder keeps its own (byte-budgeted) copy so a breach
  // snapshot survives even after this buffer has rolled past the span.
  FlightRecorder::global().record(span);
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
    while (spans_.size() > capacity_) {
      spans_.pop_front();
      ++dropped;
    }
  }
  note_dropped_spans(dropped);
}

std::vector<TraceEvent> TraceRecorder::timeline(
    const std::string& subject) const {
  std::lock_guard lock(mu_);
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.subject == subject) out.push_back(e);
  }
  return out;
}

std::vector<SpanRecord> TraceRecorder::spans() const {
  std::lock_guard lock(mu_);
  return {spans_.begin(), spans_.end()};
}

std::size_t TraceRecorder::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
  spans_.clear();
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::size_t dropped_events = 0;
  std::size_t dropped_spans = 0;
  {
    std::lock_guard lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
    while (events_.size() > capacity_) {
      events_.pop_front();
      ++dropped_events;
    }
    while (spans_.size() > capacity_) {
      spans_.pop_front();
      ++dropped_spans;
    }
  }
  note_dropped_events(dropped_events);
  note_dropped_spans(dropped_spans);
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

double TraceRecorder::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

}  // namespace ps::obs
