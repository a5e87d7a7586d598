// Virtual-time promise/future for the asynchronous operation core.
//
// ps::core::Future<T> is the result handle of a proxy's pending resolve,
// an executor job and the completion-driven wire ops (kv::KvClient::
// get_many_async, rpc::RpcClient::call_async). Unlike std::future it is
// built for the simulation's virtual-time model: the completing thread
// stamps its virtual "now" into the shared state, and every waiter merges
// that stamp into its own clock (`sim::vmerge`) — so communication started
// in the background overlaps computation, and the eventual wait observes
// max(compute, transfer), the paper's §5.3 async-resolve semantics. No
// thread is ever spawned here (see core/async.hpp for the bounded executor
// that runs the work).
//
// Futures are copyable; copies share one state, and any number of threads
// may wait on it (each merges the completion vtime). Values are returned
// by const reference from wait() — callers copy only when they need to.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "sim/vtime.hpp"

namespace ps::core {

/// Unit result for async operations with nothing to return (a proxy's
/// first resolve).
struct Unit {
  bool operator==(const Unit&) const = default;
};

namespace detail {

template <typename T>
struct FutureState {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<T> value;
  std::exception_ptr error;
  bool ready = false;
  /// Virtual time of the completing thread at completion; merged by every
  /// waiter so the operation's cost reaches whoever consumes the result.
  sim::SimTime done_vtime = 0.0;
};

template <typename T>
void complete(const std::shared_ptr<FutureState<T>>& state,
              std::optional<T> value, std::exception_ptr error) {
  {
    std::lock_guard lock(state->mu);
    if (state->ready) {
      throw Error("Promise: already completed");
    }
    state->value = std::move(value);
    state->error = error;
    state->done_vtime = sim::vnow();
    state->ready = true;
  }
  state->cv.notify_all();
}

}  // namespace detail

template <typename T>
class Promise;

template <typename T>
class Future {
 public:
  using value_type = T;

  /// An invalid (default-constructed) future; valid() is false.
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  bool ready() const {
    check_valid();
    std::lock_guard lock(state_->mu);
    return state_->ready;
  }

  /// Blocks (real time) for completion, merges the completing thread's
  /// virtual time into the caller's clock, rethrows the operation's error,
  /// and returns the stored value by reference. Safe to call from many
  /// threads; each one merges. The reference lives only as long as some
  /// Future/Promise holds the shared state — on a temporary future
  /// (`f().wait()`), use get() instead of binding the reference.
  const T& wait() const {
    check_valid();
    std::unique_lock lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->ready; });
    const sim::SimTime done = state_->done_vtime;
    lock.unlock();
    sim::vmerge(done);
    if (state_->error) std::rethrow_exception(state_->error);
    return *state_->value;
  }

  /// wait() returning a copy of the value (futures are shared; the stored
  /// value stays in place for other holders).
  T get() const { return wait(); }

  /// Virtual completion time. Only meaningful once ready().
  sim::SimTime done_vtime() const {
    check_valid();
    std::lock_guard lock(state_->mu);
    return state_->done_vtime;
  }

  /// True when `other` shares this future's state (same operation).
  bool same_state(const Future& other) const {
    return state_ == other.state_;
  }

 private:
  friend class Promise<T>;

  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  void check_valid() const {
    if (!state_) throw Error("Future: invalid (default-constructed)");
  }

  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Completion side of a Future. Copyable (copies share the state); exactly
/// one set_value/set_error call is allowed across all copies.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> future() const { return Future<T>(state_); }

  /// Publishes the value, stamps the calling thread's virtual time as the
  /// completion time and wakes waiters.
  void set_value(T value) const {
    detail::complete(state_, std::optional<T>(std::move(value)), nullptr);
  }

  void set_error(std::exception_ptr error) const {
    detail::complete<T>(state_, std::nullopt, error);
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Completes `promise` as if the completing thread's clock read `done`:
/// temporarily sets the caller's virtual time to `done`, publishes the value
/// (stamping done_vtime = `done`), then restores the caller's clock. This
/// is how completion-driven wire paths (net::PipelinedChannel) stamp each
/// in-flight request's own completion vtime without advancing the issuing
/// thread.
template <typename T>
void complete_at(const Promise<T>& promise, T value, sim::SimTime done) {
  const sim::SimTime saved = sim::vnow();
  sim::vset(done);
  promise.set_value(std::move(value));
  sim::vset(saved);
}

}  // namespace ps::core
