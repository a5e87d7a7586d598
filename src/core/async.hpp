// AsyncExecutor: the bounded worker pool behind asynchronous proxy
// resolution.
//
// Replaces the unbounded thread-per-op std::async pattern: all background
// work in the resolve path — Proxy::resolve_async, which the faas registry
// also uses to resolve arguments ahead — runs on one shared pool with a
// bounded submission queue (submit() blocks when full, back-pressuring
// producers instead of growing without limit). The Connector protocol is
// synchronous, and the wire's async reads are completion-driven and hold
// no worker; the swarm runs its chunk waves on a private pool of this type.
//
// Jobs carry their submitter's context: the worker enters the submitting
// thread's simulated process (ProcessScope) and seeds its virtual clock
// from the submitter's "now" before running, so virtual-time costs charged
// by the job accumulate exactly as if the submitter had run it — the
// overlap with the submitter's own subsequent compute is realized when the
// result future's wait() merges the job's completion vtime.
//
// Observability (process-wide registry):
//   async.executor.submitted / completed / saturated   counters
//   async.executor.queue_depth / workers               gauges
//   async.executor.queue_wait.wall                     histogram
//   async.executor.service.wall / service.vtime        histograms
// The queue-wait vs service-time split is measured here, where both sides
// of the hand-off are visible; per-op latency histograms live in
// InstrumentedConnector.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/future.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "proc/process.hpp"

namespace ps::core {

class AsyncExecutor {
 public:
  struct Options {
    /// Worker threads; 0 picks min(4, hardware_concurrency).
    std::size_t workers = 0;
    /// Maximum queued (not yet running) jobs; submit() blocks beyond this.
    std::size_t max_queue = 256;
  };

  AsyncExecutor() : AsyncExecutor(Options()) {}
  explicit AsyncExecutor(Options options);
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  /// The process-wide shared pool (intentionally leaked, like the metric
  /// and connector registries, so jobs in flight at exit never race static
  /// destruction).
  static AsyncExecutor& shared();

  /// Enqueues `fn` to run on a worker inside the submitting thread's
  /// simulated process with its virtual clock seeded from the submitter's
  /// vnow. Blocks while the queue is at capacity (bounded back-pressure);
  /// counts such submissions in async.executor.saturated.
  void submit(std::function<void()> fn);

  /// Runs `op` asynchronously and returns a future of its result; errors
  /// thrown by `op` fail the future.
  template <typename T, typename F>
  Future<T> run(F op) {
    Promise<T> promise;
    Future<T> future = promise.future();
    submit([promise, op = std::move(op)]() mutable {
      try {
        promise.set_value(op());
      } catch (...) {
        promise.set_error(std::current_exception());
      }
    });
    return future;
  }

  std::size_t workers() const { return threads_.size(); }
  std::size_t queue_depth() const;

 private:
  struct Job {
    std::function<void()> fn;
    proc::Process* process;
    sim::SimTime submit_vtime;
    std::chrono::steady_clock::time_point enqueued;
    /// Submitter's trace context: the worker adopts it so spans opened by
    /// the job parent correctly, and the measured queue wait is recorded as
    /// an "executor-queue" segment on the submitter's critical path.
    obs::TraceContext ctx;
  };

  void worker_loop();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;

  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& saturated_;
  obs::Gauge& depth_gauge_;
  obs::Gauge& workers_gauge_;
  obs::Histogram& queue_wait_wall_;
  obs::Histogram& service_wall_;
  obs::Histogram& service_vtime_;
};

}  // namespace ps::core
