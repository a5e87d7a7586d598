// World: one isolated simulation universe.
//
// A World owns the network fabric (topology + link costs), the service
// directory (addressable substrate servers), and the simulated processes.
// Tests construct private Worlds for isolation; a lazily created default
// World with a single "local" host backs code that runs outside any
// explicit scope.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "proc/process.hpp"
#include "proc/services.hpp"
#include "sim/scheduler.hpp"

namespace ps::proc {

class World {
 public:
  /// Creates a world with an empty fabric. Call fabric() to build topology,
  /// then spawn processes on its hosts.
  World();

  /// Creates a world with a minimal single-site fabric ("local" site,
  /// "localhost" host) — convenient for unit tests.
  static std::unique_ptr<World> make_local();

  net::Fabric& fabric() { return fabric_; }
  const net::Fabric& fabric() const { return fabric_; }
  ServiceDirectory& services() { return services_; }
  sim::Scheduler& scheduler() { return scheduler_; }

  /// Creates a process pinned to `host` (which must exist in the fabric).
  Process& spawn(const std::string& name, const std::string& host);

  /// Looks up a previously spawned process by name.
  Process& process(const std::string& name);

  /// Snapshot of every spawned process (pointers stay valid for the world's
  /// lifetime — processes are never destroyed before the world).
  std::vector<Process*> processes() const;

  /// Per-process metrics scoping (off by default). When on, ProcessScope
  /// routes obs::MetricsRegistry::ambient() to the entered process's own
  /// registry, so the telemetry plane can attribute metrics to the simulated
  /// site that produced them. Off, every process records into the global
  /// registry — the historical behavior every existing bench baseline
  /// assumes.
  void set_metrics_scoping(bool on) {
    metrics_scoping_.store(on, std::memory_order_relaxed);
  }
  bool metrics_scoping() const {
    return metrics_scoping_.load(std::memory_order_relaxed);
  }

  /// The default world used by threads that never entered a scope.
  static World& default_world();

 private:
  net::Fabric fabric_;
  ServiceDirectory services_;
  sim::Scheduler scheduler_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::atomic<bool> metrics_scoping_{false};
};

}  // namespace ps::proc
