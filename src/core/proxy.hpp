// Transparent, lazy object proxies (paper section 3.3).
//
// A Proxy<T> behaves like a T wherever a `const T&` is accepted — the
// implicit conversion operator forwards consumer code to the resolved
// target with no shims, which is the transparency property the paper's
// programming model rests on. Resolution is lazy (first access), cached,
// thread-safe, and can be overlapped with computation via resolve_async
// (used by the paper's 1 s-sleep experiments).
//
// Resolution is single-flight: however many threads race resolve() /
// resolve_async(), exactly one invokes the factory; the others wait on a
// shared core::Future and merge the resolver's virtual completion time, so
// every observer's clock reflects the communication cost. Async resolution
// runs on the shared bounded AsyncExecutor — no detached or per-proxy
// threads anywhere in the resolve path. Once the target is published, a
// deref is one acquire load plus a merge of the publication vtime: no
// promise, no mutex, no allocation.
//
// Copying a proxy shares the resolution state (like Python references);
// serializing a proxy writes only its factory descriptor, never the target,
// so proxies stay small on the wire and remain resolvable after crossing a
// process boundary. The serde codec lives in store.hpp, which binds
// descriptors back to stores.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "core/async.hpp"
#include "core/factory.hpp"
#include "core/future.hpp"
#include "sim/vtime.hpp"

namespace ps::core {

template <typename T>
class Proxy {
 public:
  /// Creates an unresolved proxy over `factory`.
  explicit Proxy(Factory<T> factory)
      : state_(std::make_shared<State>(std::move(factory))) {
    if (!state_->factory.valid()) {
      throw ProxyResolutionError("Proxy: factory is empty");
    }
  }

  // -- transparency ----------------------------------------------------------

  /// Implicit conversion: pass a Proxy<T> anywhere a const T& is expected.
  operator const T&() const { return resolve(); }  // NOLINT(google-explicit-*)

  const T& operator*() const { return resolve(); }
  const T* operator->() const { return &resolve(); }

  // -- resolution ------------------------------------------------------------

  /// Resolves (if needed) and returns the cached target.
  const T& resolve() const {
    ensure_resolved();
    return *state_->target;
  }

  /// True once the target has been materialized locally.
  bool resolved() const {
    return state_->published.load(std::memory_order_acquire);
  }

  /// Begins resolving on the shared bounded AsyncExecutor; returns
  /// immediately. Idempotent (and a no-op while any resolve is already in
  /// flight). The eventual wait (resolve()/await_async()) merges the
  /// resolver's virtual time so communication overlaps computation.
  void resolve_async() const {
    if (resolved()) return;
    Promise<Unit> promise;
    {
      std::lock_guard lock(state_->mu);
      if (resolved() || state_->pending.valid()) return;
      state_->pending = promise.future();
    }
    auto state = state_;
    AsyncExecutor::shared().submit(
        [state, promise] { State::run_factory(*state, promise); });
  }

  /// Waits for a pending async resolve (or resolves inline).
  const T& await_async() const { return resolve(); }

  /// Mutable access to the *local copy* of the target. Mutations affect
  /// only this process's materialized copy — pass-by-value semantics for
  /// the eventual consumer, as in the paper.
  T& mutable_target() {
    ensure_resolved();
    return *state_->target;
  }

  /// The factory backing this proxy.
  const Factory<T>& factory() const { return state_->factory; }

 private:
  struct State {
    explicit State(Factory<T> f) : factory(std::move(f)) {}

    /// Invokes the factory (without holding `mu` during the possibly-slow
    /// call), publishes the target, and completes `promise` — with the
    /// error instead if the factory throws, so every waiter rethrows.
    static void run_factory(State& state, const Promise<Unit>& promise) {
      try {
        T value = state.factory();
        {
          std::lock_guard lock(state.mu);
          if (!state.published.load(std::memory_order_relaxed)) {
            state.target.emplace(std::move(value));
            // Stamped before the promise completes (and equal to its
            // completion vtime), so observers taking the published fast
            // path are charged the transfer's virtual cost too.
            state.resolved_vtime = std::max(state.resolved_vtime, sim::vnow());
            // Release: pairs with the acquire in ensure_resolved(), making
            // `target` and `resolved_vtime` visible to lock-free readers.
            state.published.store(true, std::memory_order_release);
          }
        }
        promise.set_value(Unit{});
      } catch (...) {
        promise.set_error(std::current_exception());
      }
    }

    Factory<T> factory;
    /// Set once, after `target` and `resolved_vtime` are written; neither
    /// changes afterwards, so readers that observe it need no lock.
    std::atomic<bool> published{false};
    std::optional<T> target;
    /// Virtual time at which the target was published; merged by every
    /// observer so none sees the value "for free" (causality: you cannot
    /// read an object before its transfer finished).
    sim::SimTime resolved_vtime = 0;
    /// Guards `pending` and the single publication.
    std::mutex mu;
    /// Valid while a resolve (sync or async) is in flight; all concurrent
    /// resolvers wait on it, making the factory invocation single-flight.
    Future<Unit> pending;
  };

  void ensure_resolved() const {
    if (state_->published.load(std::memory_order_acquire)) {
      sim::vmerge(state_->resolved_vtime);
      return;
    }
    resolve_slow();
  }

  /// First resolve: become the resolver or join the one in flight.
  void resolve_slow() const {
    Promise<Unit> promise;
    Future<Unit> in_flight;
    bool resolver = false;
    {
      std::lock_guard lock(state_->mu);
      if (state_->pending.valid()) {
        in_flight = state_->pending;
      } else if (resolved()) {
        // Published between the fast-path check and taking the lock.
        sim::vmerge(state_->resolved_vtime);
        return;
      } else {
        in_flight = promise.future();
        state_->pending = in_flight;
        resolver = true;
      }
    }
    if (resolver) State::run_factory(*state_, promise);
    try {
      in_flight.wait();  // merges the resolver's vtime; rethrows errors
    } catch (...) {
      clear_pending(in_flight);
      throw;
    }
    clear_pending(in_flight);
  }

  /// Drops the in-flight marker once the wait completed, so a failed
  /// resolve can be retried (only if no newer resolve replaced it).
  void clear_pending(const Future<Unit>& finished) const {
    std::lock_guard lock(state_->mu);
    if (state_->pending.valid() && state_->pending.same_state(finished)) {
      state_->pending = Future<Unit>();
    }
  }

  std::shared_ptr<State> state_;
};

}  // namespace ps::core
