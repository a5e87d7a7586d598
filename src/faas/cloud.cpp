#include "faas/cloud.hpp"

#include "common/error.hpp"
#include "faas/registry.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "proc/process.hpp"
#include "sim/vtime.hpp"

namespace ps::faas {

namespace {
constexpr const char* kAddress = "faas://cloud";
/// The task payload ceiling ("Globus Compute enforces a 5 MB task payload
/// size limit"). Applies to inputs and results.
constexpr std::size_t kMaxPayloadBytes = 5'000'000;
/// Cloud API processing latency per leg (auth, routing, storage I/O).
constexpr double kBaseLatencyS = 0.18;
/// Cloud-side payload handling bandwidth. Deliberately low: task payloads
/// are JSON/base64-encoded, stored in hosted Redis, and polled over
/// websockets, which the paper's Figure 5 baseline shows costs on the order
/// of seconds per few MB.
constexpr double kStorageBps = 1e6;
/// Concurrency of the cloud ingestion path.
constexpr std::size_t kIngestServers = 8;
}  // namespace

std::shared_ptr<CloudService> CloudService::start(proc::World& world,
                                                  const std::string& host) {
  auto service = std::make_shared<CloudService>(world, host);
  world.services().bind<CloudService>(kAddress, service);
  return service;
}

std::shared_ptr<CloudService> CloudService::connect() {
  return proc::current_process().world().services().resolve<CloudService>(
      kAddress);
}

CloudService::CloudService(proc::World& world, std::string host)
    : world_(world), host_(std::move(host)), ingest_queue_(kIngestServers) {
  world_.fabric().host(host_);  // validate
}

Uuid CloudService::register_endpoint(const std::string& host) {
  world_.fabric().host(host);  // validate
  const Uuid id = Uuid::random();
  std::lock_guard lock(mu_);
  endpoints_[id] =
      EndpointEntry{host, std::make_shared<Queue<TaskRecord>>()};
  return id;
}

const std::string& CloudService::endpoint_host(const Uuid& endpoint) const {
  std::lock_guard lock(mu_);
  const auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    throw NotRegisteredError("CloudService: unknown endpoint " +
                             endpoint.str());
  }
  return it->second.host;
}

double CloudService::ingest(double arrival, std::size_t bytes) {
  return ingest_queue_.schedule(
      arrival, kBaseLatencyS + static_cast<double>(bytes) / kStorageBps);
}

Uuid CloudService::submit(const Uuid& endpoint, const std::string& function,
                          Bytes payload) {
  auto& registry = obs::MetricsRegistry::ambient();
  obs::Histogram& submit_vtime = registry.histogram("faas.submit.vtime");
  obs::Histogram& submit_wall = registry.histogram("faas.submit.wall");
  obs::Counter& rejections = registry.counter("faas.payload_rejections");
  obs::Timer timer(&submit_vtime, &submit_wall);
  if (payload.size() > kMaxPayloadBytes) {
    if (obs::enabled()) rejections.inc();
    throw PayloadTooLargeError(
        "task payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte cloud limit");
  }
  std::shared_ptr<Queue<TaskRecord>> queue;
  {
    std::lock_guard lock(mu_);
    const auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) {
      throw NotRegisteredError("CloudService: unknown endpoint " +
                               endpoint.str());
    }
    queue = it->second.tasks;
  }
  // Client -> cloud leg plus cloud-side storage ingest.
  const std::string& client_host = proc::current_process().host();
  const double arrival =
      sim::vnow() +
      world_.fabric().transfer_time(client_host, host_, payload.size());
  const double ready = ingest(arrival, payload.size());
  sim::vmerge(ready);  // the submit API returns after the upload is durable

  TaskRecord record;
  const Uuid task_id = Uuid::random();
  record.id = task_id;
  record.function = function;
  record.payload = std::move(payload);
  record.ready_stamp = ready;
  record.trace = obs::current_context();
  queue->push(std::move(record));
  return task_id;
}

std::optional<TaskRecord> CloudService::next_task(const Uuid& endpoint) {
  std::shared_ptr<Queue<TaskRecord>> queue;
  {
    std::lock_guard lock(mu_);
    const auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) return std::nullopt;
    queue = it->second.tasks;
  }
  return queue->pop();
}

void CloudService::post_result(const Uuid& endpoint, const Uuid& task,
                               Bytes data, std::string error) {
  if (error.empty() && data.size() > kMaxPayloadBytes) {
    data.clear();
    error = "task result exceeds the cloud payload limit";
  }
  const std::string& ep_host = endpoint_host(endpoint);
  const double arrival =
      sim::vnow() + world_.fabric().transfer_time(ep_host, host_, data.size());
  TaskResult result;
  result.stamp = ingest(arrival, data.size());
  result.data = std::move(data);
  result.error = std::move(error);
  {
    std::lock_guard lock(mu_);
    results_[task] = std::move(result);
  }
  results_cv_.notify_all();
}

TaskResult CloudService::retrieve(const Uuid& task) {
  TaskResult result;
  {
    std::unique_lock lock(mu_);
    results_cv_.wait(lock, [&] { return results_.contains(task); });
    result = std::move(results_.at(task));
    results_.erase(task);
  }
  // Cloud -> client leg.
  const std::string& client_host = proc::current_process().host();
  sim::vmerge(result.stamp);
  sim::vadvance(
      world_.fabric().transfer_time(host_, client_host, result.data.size()));
  return result;
}

void CloudService::deregister_endpoint(const Uuid& endpoint) {
  std::shared_ptr<Queue<TaskRecord>> queue;
  {
    std::lock_guard lock(mu_);
    const auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) return;
    queue = it->second.tasks;
    endpoints_.erase(it);
  }
  queue->close();
}

ComputeEndpoint::ComputeEndpoint(std::shared_ptr<CloudService> cloud,
                                 proc::Process& process, std::size_t workers)
    : cloud_(std::move(cloud)), process_(process) {
  uuid_ = cloud_->register_endpoint(process_.host());
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ComputeEndpoint::~ComputeEndpoint() { stop(); }

void ComputeEndpoint::stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  cloud_->deregister_endpoint(uuid_);
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void ComputeEndpoint::worker_loop() {
  proc::ProcessScope scope(process_);
  double last_done = 0.0;  // this worker serves tasks one at a time
  while (auto task = cloud_->next_task(uuid_)) {
    // Cloud -> endpoint leg: the task (with its payload) arrives here.
    const double arrival =
        task->ready_stamp +
        process_.world().fabric().transfer_time(cloud_->host(),
                                                process_.host(),
                                                task->payload.size());
    sim::vset(std::max(arrival, last_done));
    auto& registry = obs::MetricsRegistry::ambient();
    obs::Histogram& exec_vtime = registry.histogram("faas.task.exec.vtime");
    obs::Histogram& exec_wall = registry.histogram("faas.task.exec.wall");
    obs::Counter& executed = registry.counter("faas.tasks.executed");
    obs::Counter& errored = registry.counter("faas.tasks.errored");
    Bytes output;
    std::string error;
    {
      // The worker runs on its own thread: stitch into the submitter's
      // trace via the context carried in the task record.
      obs::ContextScope adopt(task->trace);
      obs::SpanScope dispatch("faas.dispatch", task->function, "dispatch");
      obs::Timer timer(&exec_vtime, &exec_wall);
      try {
        const TaskFunction fn = FunctionRegistry::instance().lookup(
            task->function);
        output = fn(task->payload);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    if (obs::enabled()) (error.empty() ? executed : errored).inc();
    cloud_->post_result(uuid_, task->id, std::move(output), std::move(error));
  }
}

}  // namespace ps::faas
