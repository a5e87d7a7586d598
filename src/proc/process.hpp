// Simulated processes.
//
// The paper's semantics are cross-process: a proxy created in process P_a is
// serialized, shipped to process P_b, and on first resolve re-registers its
// Store there (Section 3.5). To test and exercise that behaviour inside one
// address space, we model processes explicitly: each Process owns its own
// typed registries (store registry, connector caches) and is pinned to a
// fabric host. A thread enters a process with ProcessScope; thread-locals
// track the current process, exactly like CPython's per-interpreter state.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <unordered_map>

namespace ps::obs {
class MetricsRegistry;
}  // namespace ps::obs

namespace ps::proc {

class World;

class Process {
 public:
  Process(std::string name, std::string host, World* world);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  /// Fabric host this process runs on.
  const std::string& host() const { return host_; }
  World& world() const { return *world_; }

  /// The process-owned metrics registry, created on first use. ProcessScope
  /// installs it as the thread's ambient registry when the world has
  /// per-process metrics scoping enabled, so substrate instrumentation lands
  /// here instead of the process-global registry.
  obs::MetricsRegistry& metrics();
  /// The registry if it was ever created, else nullptr (telemetry agents use
  /// this to skip processes that never recorded anything).
  obs::MetricsRegistry* try_metrics() const;

  /// Returns the process-local singleton of type T, default-constructing it
  /// on first use. T must be default-constructible. This is how per-process
  /// registries (e.g. the Store registry) are kept isolated.
  template <typename T>
  T& local() {
    std::lock_guard lock(mu_);
    const std::type_index key(typeid(T));
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_shared<T>()).first;
    }
    return *static_cast<T*>(it->second.get());
  }

 private:
  std::string name_;
  std::string host_;
  World* world_;
  mutable std::mutex mu_;
  std::unordered_map<std::type_index, std::shared_ptr<void>> slots_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
};

/// The process the calling thread is currently executing in. Never null:
/// threads outside any scope run in the default world's "main" process.
Process& current_process();

/// RAII guard entering `process` on the calling thread. Nests. When the
/// process's world has metrics scoping enabled, also installs the process's
/// own MetricsRegistry as the thread's ambient registry for the duration
/// (restored on exit), so metrics recorded inside the scope land in the
/// simulated site doing the work.
class ProcessScope {
 public:
  explicit ProcessScope(Process& process);
  ~ProcessScope();

  ProcessScope(const ProcessScope&) = delete;
  ProcessScope& operator=(const ProcessScope&) = delete;

 private:
  Process* previous_;
  obs::MetricsRegistry* previous_ambient_;
};

}  // namespace ps::proc
