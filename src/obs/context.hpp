// Distributed trace context (W3C-traceparent-like) for cross-site stitching.
//
// A TraceContext is a 128-bit trace id plus a 64-bit span id and parent span
// id. It is small, trivially copyable, and serializable, so it rides on the
// wire inside every message that crosses a simulated process/site boundary:
// the serde-encoded FactoryDescriptor of a proxy, FaaS task records, relay
// signaling messages, PS-endpoint requests, and RPC calls. Each hop adopts
// the incoming context (ContextScope) and opens a child span (SpanScope), so
// a proxy created at site A and resolved inside a FaaS worker at site B
// records spans stitched into one causal trace.
//
// Context is tracked per thread. SpanScope is a no-op (one relaxed load, no
// allocation) while the global TraceRecorder is disabled.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

namespace ps::obs {

struct TraceContext {
  /// 128-bit trace id (hi:lo); zero means "no active trace".
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  /// This hop's span; zero only in the invalid context.
  std::uint64_t span_id = 0;
  /// Span this hop is causally under; zero for trace roots.
  std::uint64_t parent_span_id = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }

  /// "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx" — 32 hex digits, for exports.
  std::string trace_id_hex() const;

  bool operator==(const TraceContext&) const = default;

  auto serde_members() {
    return std::tie(trace_hi, trace_lo, span_id, parent_span_id);
  }
  auto serde_members() const {
    return std::tie(trace_hi, trace_lo, span_id, parent_span_id);
  }
};

/// The calling thread's active context (invalid when no trace is active).
TraceContext current_context();

/// A fresh root context: new 128-bit trace id, new span id, no parent.
TraceContext new_root_context();

/// A child of `parent`: same trace id, new span id, parent = parent.span_id.
TraceContext child_of(const TraceContext& parent);

// ---------------------------------------------------------------------------
// Locality: which simulated process/host/site a span executed in. The proc
// layer installs a provider at startup (obs cannot depend on proc); spans
// recorded before installation attribute to the "untracked" locality.
// ---------------------------------------------------------------------------

struct SpanLocality {
  std::string process;  // simulated process name (Perfetto tid)
  std::string host;     // fabric host
  std::string site;     // fabric site (Perfetto pid)
};

using LocalityProvider = SpanLocality (*)();

void set_locality_provider(LocalityProvider provider);
SpanLocality current_locality();

// ---------------------------------------------------------------------------
// Scopes.
// ---------------------------------------------------------------------------

/// RAII: adopts a context carried in from another process/site as the
/// calling thread's current context (no-op when `ctx` is invalid), restoring
/// the previous context on destruction. Receivers of wire messages use this
/// so their child spans stitch into the sender's trace.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext previous_;
};

/// RAII span: on construction becomes the thread's current context (a child
/// of the previous context, or a new trace root), on destruction records a
/// SpanRecord — wall + virtual start/end, locality — into the global
/// TraceRecorder. Inert while tracing is disabled: the strings are copied
/// only into an active span, so a disabled span never allocates.
class SpanScope {
 public:
  /// `kind` tags the recorded span with its critical-path segment
  /// ("wire-transfer", "serde", ... — see obs/critical.hpp); empty leaves
  /// classification to the analyzer's name-based fallback.
  explicit SpanScope(std::string_view name, std::string_view subject = {},
                     std::string_view kind = {});
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// This span's context — what callers embed in wire messages so remote
  /// hops become children of this span. Invalid while tracing is disabled.
  const TraceContext& context() const { return ctx_; }
  bool active() const { return active_; }

  /// Overrides the recorded locality (e.g. the relay records under its own
  /// host, not the caller's process).
  void set_locality(SpanLocality locality);

 private:
  bool active_ = false;
  bool has_locality_override_ = false;
  TraceContext ctx_;
  TraceContext previous_;
  std::string name_;
  std::string subject_;
  std::string kind_;
  SpanLocality locality_override_;
  double wall_start_ = 0.0;
  double vtime_start_ = 0.0;
};

}  // namespace ps::obs
