#include "obs/trace.hpp"

#include <cstdlib>

#include "obs/metrics.hpp"

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

void TraceRecorder::note_dropped_spans(std::size_t n) {
  if (n == 0) return;
  dropped_spans_.fetch_add(n, std::memory_order_relaxed);
  // Lazily resolved once: registry references stay valid for process life.
  static Counter& counter =
      MetricsRegistry::global().counter("trace.dropped.spans");
  counter.inc(n);
}

void TraceRecorder::record_span(SpanRecord span) {
  if (!enabled()) return;
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

std::vector<SpanRecord> TraceRecorder::spans() const {
  std::lock_guard lock(mu_);
  return {spans_.begin(), spans_.end()};
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
    while (spans_.size() > capacity_) {
      spans_.pop_front();
      ++dropped;
    }
  }
  note_dropped_spans(dropped);
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
