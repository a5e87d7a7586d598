// Simulated Globus transfer service (paper sections 2, 4.2.1).
//
// Globus Transfer is a cloud-managed file transfer SaaS: clients register
// endpoints (host + directory), submit asynchronous transfer tasks between
// endpoints, and poll task status. The hybrid software-as-a-service model
// means high per-task latency but high sustained bandwidth for bulk data —
// the reason GlobusStore loses at small payloads and wins at bulk in
// Figure 5. Files are really copied between endpoint directories; timing is
// virtual and deterministic.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/uuid.hpp"
#include "proc/world.hpp"
#include "sim/resource.hpp"

namespace ps::globus {

enum class TaskStatus { kQueued, kActive, kSucceeded, kFailed };

std::string to_string(TaskStatus s);

struct TransferTask {
  Uuid task_id;
  Uuid source;
  Uuid destination;
  std::vector<std::string> files;
  TaskStatus status = TaskStatus::kQueued;
  /// Virtual time at which the transfer completes (or failed).
  double completion_vtime = 0.0;
  std::string error;
};

class TransferService {
 public:
  /// Creates the (world-singleton) service, bound at "globus://transfer".
  static std::shared_ptr<TransferService> start(proc::World& world);

  /// Resolves the running service from the current world.
  static std::shared_ptr<TransferService> connect();

  explicit TransferService(proc::World& world);

  /// Registers an endpoint rooted at `dir` on fabric host `host`;
  /// returns its UUID. The directory is created.
  Uuid register_endpoint(const std::string& host,
                         const std::filesystem::path& dir);

  /// Endpoint lookup helpers.
  const std::string& endpoint_host(const Uuid& endpoint) const;
  const std::filesystem::path& endpoint_dir(const Uuid& endpoint) const;

  /// Submits an asynchronous transfer of `files` (paths relative to the
  /// endpoint roots) from `source` to `destination` at the caller's current
  /// virtual time. Returns the task id immediately (the SaaS queues it).
  Uuid submit(const Uuid& source, const Uuid& destination,
              const std::vector<std::string>& files);

  /// Current status given the caller's virtual time.
  TaskStatus status(const Uuid& task_id) const;

  /// Blocks (in virtual time) until the task finishes: advances the
  /// caller's virtual clock to the completion time. Throws TransferError if
  /// the task failed.
  void wait(const Uuid& task_id);

  /// Failure injection: subsequent submits involving `endpoint` fail.
  void set_endpoint_failing(const Uuid& endpoint, bool failing);

  std::size_t task_count() const;

 private:
  struct Endpoint {
    std::string host;
    std::filesystem::path dir;
    bool failing = false;
  };

  const Endpoint& endpoint(const Uuid& id) const;

  proc::World& world_;
  sim::Resource task_queue_;
  mutable std::mutex mu_;
  std::map<Uuid, Endpoint> endpoints_;
  std::map<Uuid, TransferTask> tasks_;
};

}  // namespace ps::globus
