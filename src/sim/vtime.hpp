// Per-actor virtual time.
//
// Every thread simulates an actor with its own virtual "now". Costs charged
// by the substrates (network transfer, disk I/O, service queueing) advance
// the calling thread's virtual time; when actors exchange messages, the
// receiver merges the sender's timestamp (`vmerge`). Benchmarks measure an
// operation's virtual duration with VtimeScope. This gives deterministic,
// machine-independent timings while the real data path still executes.
#pragma once

namespace ps::sim {

/// Virtual time in seconds.
using SimTime = double;

/// The calling thread's current virtual time (seconds).
SimTime vnow();

/// Sets the calling thread's virtual time.
void vset(SimTime t);

/// Advances the calling thread's virtual time by `dt` (>= 0).
void vadvance(SimTime dt);

/// Merges an incoming message timestamp: vnow = max(vnow, t).
void vmerge(SimTime t);

/// Measures virtual time elapsed on this thread since construction.
class VtimeScope {
 public:
  VtimeScope();
  /// Virtual seconds elapsed since construction.
  SimTime elapsed() const;

 private:
  SimTime start_;
};

/// RAII: saves the thread's virtual time and restores it on destruction.
/// Benchmarks use this to isolate repetitions.
class VtimeGuard {
 public:
  VtimeGuard();
  ~VtimeGuard();
  VtimeGuard(const VtimeGuard&) = delete;
  VtimeGuard& operator=(const VtimeGuard&) = delete;

 private:
  SimTime saved_;
};

}  // namespace ps::sim
