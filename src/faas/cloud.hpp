// Globus Compute-like federated FaaS substrate (paper section 2).
//
// The cloud service routes each client task to a target compute endpoint
// and stores inputs and results in cloud storage until retrieved — even
// when client and endpoint share a site. That mandatory cloud round trip
// plus the 5 MB payload ceiling is the baseline every ProxyStore experiment
// compares against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/queue.hpp"
#include "common/uuid.hpp"
#include "obs/context.hpp"
#include "proc/world.hpp"
#include "sim/resource.hpp"

namespace ps::faas {

struct TaskRecord {
  Uuid id;
  std::string function;
  Bytes payload;
  /// Virtual time the task becomes available to the endpoint.
  double ready_stamp = 0.0;
  /// Submitter's trace context: the worker adopts it so the dispatch span
  /// parents to the submit span across the cloud hop (a thread boundary
  /// thread-local context cannot cross).
  obs::TraceContext trace{};
};

struct TaskResult {
  Bytes data;
  std::string error;  // non-empty => task raised
  double stamp = 0.0;  // virtual completion time at the cloud
  bool failed() const { return !error.empty(); }
};

class CloudService {
 public:
  static std::shared_ptr<CloudService> start(proc::World& world,
                                             const std::string& host);

  /// Resolves the cloud service of the current world.
  static std::shared_ptr<CloudService> connect();

  CloudService(proc::World& world, std::string host);

  /// Registers a compute endpoint; returns its UUID and task queue.
  Uuid register_endpoint(const std::string& host);

  /// Client-side task submission at the caller's virtual time: enforces
  /// the payload limit, charges client->cloud + cloud ingest, and enqueues
  /// the task for the endpoint. Returns the task id.
  Uuid submit(const Uuid& endpoint, const std::string& function,
              Bytes payload);

  /// Endpoint-side: blocking pop of the next task (real time); nullopt
  /// when the endpoint is deregistered/shutting down.
  std::optional<TaskRecord> next_task(const Uuid& endpoint);

  /// Endpoint-side: stores a result, charging endpoint->cloud + ingest.
  /// Oversized results are converted into task failures (the baseline's
  /// result-size ceiling).
  void post_result(const Uuid& endpoint, const Uuid& task, Bytes data,
                   std::string error);

  /// Client-side: blocks (real time) for the result, charges cloud->client
  /// and merges virtual completion time. The result is removed from cloud
  /// storage once retrieved.
  TaskResult retrieve(const Uuid& task);

  /// Stops an endpoint's queue (drains to the workers as nullopt).
  void deregister_endpoint(const Uuid& endpoint);

  const std::string& host() const { return host_; }
  const std::string& endpoint_host(const Uuid& endpoint) const;

 private:
  struct EndpointEntry {
    std::string host;
    std::shared_ptr<Queue<TaskRecord>> tasks;
  };

  double ingest(double arrival, std::size_t bytes);

  proc::World& world_;
  std::string host_;
  sim::Resource ingest_queue_;
  mutable std::mutex mu_;
  std::condition_variable results_cv_;
  std::map<Uuid, EndpointEntry> endpoints_;
  std::map<Uuid, TaskResult> results_;
};

/// A compute endpoint: worker threads that pop tasks from the cloud queue,
/// execute the registered function inside the endpoint's simulated process,
/// and post results back to the cloud.
class ComputeEndpoint {
 public:
  /// Spawns `workers` worker threads on `process` (which determines the
  /// fabric host and the store registry tasks resolve proxies against).
  ComputeEndpoint(std::shared_ptr<CloudService> cloud, proc::Process& process,
                  std::size_t workers = 1);
  ~ComputeEndpoint();

  ComputeEndpoint(const ComputeEndpoint&) = delete;
  ComputeEndpoint& operator=(const ComputeEndpoint&) = delete;

  const Uuid& uuid() const { return uuid_; }

  /// Stops the workers (drains in-flight tasks).
  void stop();

 private:
  void worker_loop();

  std::shared_ptr<CloudService> cloud_;
  proc::Process& process_;
  Uuid uuid_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace ps::faas
