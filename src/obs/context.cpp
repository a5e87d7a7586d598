#include "obs/context.hpp"

#include <atomic>
#include <cstdio>

#include "obs/trace.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {

namespace {

// Trace ids are sequence numbers under a fixed process tag rather than
// random draws, keeping traces reproducible on the deterministic simulator
// while still globally unique within a run.
constexpr std::uint64_t kTraceTag = 0x70733a7472616365ULL;  // "ps:trace"

std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_span{1};

thread_local TraceContext t_context;

std::atomic<LocalityProvider> g_locality_provider{nullptr};

}  // namespace

std::string TraceContext::trace_id_hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(trace_hi),
                static_cast<unsigned long long>(trace_lo));
  return buf;
}

TraceContext current_context() { return t_context; }

TraceContext new_root_context() {
  TraceContext ctx;
  ctx.trace_hi = kTraceTag;
  ctx.trace_lo = g_next_trace.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  ctx.parent_span_id = 0;
  return ctx;
}

TraceContext child_of(const TraceContext& parent) {
  if (!parent.valid()) return new_root_context();
  TraceContext ctx;
  ctx.trace_hi = parent.trace_hi;
  ctx.trace_lo = parent.trace_lo;
  ctx.span_id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  ctx.parent_span_id = parent.span_id;
  return ctx;
}

void set_locality_provider(LocalityProvider provider) {
  g_locality_provider.store(provider, std::memory_order_release);
}

SpanLocality current_locality() {
  if (const LocalityProvider provider =
          g_locality_provider.load(std::memory_order_acquire)) {
    return provider();
  }
  return SpanLocality{"untracked", "unknown", "unknown"};
}

ContextScope::ContextScope(const TraceContext& ctx) : previous_(t_context) {
  if (ctx.valid()) t_context = ctx;
}

ContextScope::~ContextScope() { t_context = previous_; }

SpanScope::SpanScope(std::string_view name, std::string_view subject,
                     std::string_view kind) {
  TraceRecorder& recorder = TraceRecorder::global();
  if (!recorder.enabled()) return;
  active_ = true;
  name_ = name;
  subject_ = subject;
  kind_ = kind;
  previous_ = t_context;
  ctx_ = previous_.valid() ? child_of(previous_) : new_root_context();
  t_context = ctx_;
  wall_start_ = recorder.wall_now();
  vtime_start_ = sim::vnow();
}

void SpanScope::set_locality(SpanLocality locality) {
  if (!active_) return;
  has_locality_override_ = true;
  locality_override_ = std::move(locality);
}

SpanScope::~SpanScope() {
  if (!active_) return;
  t_context = previous_;
  TraceRecorder& recorder = TraceRecorder::global();
  SpanRecord span;
  span.ctx = ctx_;
  span.name = std::move(name_);
  span.subject = std::move(subject_);
  span.kind = std::move(kind_);
  SpanLocality locality =
      has_locality_override_ ? std::move(locality_override_)
                             : current_locality();
  span.process = std::move(locality.process);
  span.host = std::move(locality.host);
  span.site = std::move(locality.site);
  span.wall_start = wall_start_;
  span.wall_end = recorder.wall_now();
  span.vtime_start = vtime_start_;
  span.vtime_end = sim::vnow();
  recorder.record_span(std::move(span));
}

}  // namespace ps::obs
