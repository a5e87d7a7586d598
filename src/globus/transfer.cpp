#include "globus/transfer.hpp"

#include <fstream>

#include "common/error.hpp"
#include "proc/process.hpp"
#include "sim/vtime.hpp"

namespace ps::globus {

namespace fs = std::filesystem;

namespace {
constexpr const char* kAddress = "globus://transfer";
/// Fixed per-task latency of the SaaS control plane (submission,
/// scheduling, endpoint polling).
constexpr double kTaskOverheadS = 2.0;
/// Additional per-file handling cost.
constexpr double kPerFileOverheadS = 0.05;
/// Fraction of the WAN route bandwidth GridFTP achieves (parallel
/// streams, tuned TCP).
constexpr double kBandwidthEfficiency = 0.9;
/// Transfer tasks the service works on concurrently per endpoint pair;
/// additional tasks queue (this is why proxy_batch — one task for many
/// objects — beats per-object transfers).
constexpr std::size_t kConcurrentTasks = 4;
}  // namespace

std::string to_string(TaskStatus s) {
  switch (s) {
    case TaskStatus::kQueued:
      return "QUEUED";
    case TaskStatus::kActive:
      return "ACTIVE";
    case TaskStatus::kSucceeded:
      return "SUCCEEDED";
    case TaskStatus::kFailed:
      return "FAILED";
  }
  return "?";
}

std::shared_ptr<TransferService> TransferService::start(proc::World& world) {
  auto service = std::make_shared<TransferService>(world);
  world.services().bind<TransferService>(kAddress, service);
  return service;
}

std::shared_ptr<TransferService> TransferService::connect() {
  return proc::current_process().world().services().resolve<TransferService>(
      kAddress);
}

TransferService::TransferService(proc::World& world)
    : world_(world), task_queue_(kConcurrentTasks) {}

Uuid TransferService::register_endpoint(const std::string& host,
                                        const fs::path& dir) {
  world_.fabric().host(host);  // validate
  fs::create_directories(dir);
  const Uuid id = Uuid::random();
  std::lock_guard lock(mu_);
  endpoints_[id] = Endpoint{host, dir, false};
  return id;
}

const TransferService::Endpoint& TransferService::endpoint(
    const Uuid& id) const {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) {
    throw TransferError("Globus: unknown endpoint " + id.str());
  }
  return it->second;
}

const std::string& TransferService::endpoint_host(const Uuid& id) const {
  std::lock_guard lock(mu_);
  return endpoint(id).host;
}

const fs::path& TransferService::endpoint_dir(const Uuid& id) const {
  std::lock_guard lock(mu_);
  return endpoint(id).dir;
}

Uuid TransferService::submit(const Uuid& source, const Uuid& destination,
                             const std::vector<std::string>& files) {
  std::lock_guard lock(mu_);
  const Endpoint& src = endpoint(source);
  const Endpoint& dst = endpoint(destination);

  TransferTask task;
  task.task_id = Uuid::random();
  task.source = source;
  task.destination = destination;
  task.files = files;

  if (src.failing || dst.failing) {
    task.status = TaskStatus::kFailed;
    task.error = "endpoint unavailable";
    task.completion_vtime = sim::vnow() + kTaskOverheadS;
    tasks_[task.task_id] = task;
    return task.task_id;
  }

  // Copy the files now (real data path); account the virtual duration from
  // the WAN route and the SaaS overheads.
  std::size_t total_bytes = 0;
  for (const std::string& file : files) {
    const fs::path from = src.dir / file;
    const fs::path to = dst.dir / file;
    std::error_code ec;
    const auto size = fs::file_size(from, ec);
    if (ec) {
      task.status = TaskStatus::kFailed;
      task.error = "source file missing: " + file;
      task.completion_vtime = sim::vnow() + kTaskOverheadS;
      tasks_[task.task_id] = task;
      return task.task_id;
    }
    total_bytes += size;
    fs::create_directories(to.parent_path());
    fs::copy_file(from, to, fs::copy_options::overwrite_existing);
  }

  // GridFTP achieves a high fraction of the route bandwidth; reuse the
  // fabric route but scale the bandwidth.
  net::Route route = world_.fabric().route(src.host, dst.host);
  double wire_time = 0.0;
  for (net::Hop& hop : route.hops) {
    net::LinkProfile p = hop.profile;
    p.congestion = net::Congestion::kBbrWan;
    p.bandwidth_Bps *= kBandwidthEfficiency;
    p.ramp_rtt_factor = 0.3;  // parallel GridFTP streams open quickly
    wire_time += p.transfer_time(total_bytes);
  }
  const double duration =
      kTaskOverheadS + kPerFileOverheadS * static_cast<double>(files.size()) +
      wire_time;
  task.status = TaskStatus::kActive;
  // The service works on a bounded number of tasks at a time; submitting
  // many small tasks queues them behind each other, while one batched task
  // moves everything in a single scheduling slot.
  task.completion_vtime = task_queue_.schedule(sim::vnow(), duration);
  tasks_[task.task_id] = task;
  return task.task_id;
}

TaskStatus TransferService::status(const Uuid& task_id) const {
  std::lock_guard lock(mu_);
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    throw TransferError("Globus: unknown task " + task_id.str());
  }
  const TransferTask& task = it->second;
  if (task.status == TaskStatus::kFailed) return TaskStatus::kFailed;
  return sim::vnow() >= task.completion_vtime ? TaskStatus::kSucceeded
                                              : TaskStatus::kActive;
}

void TransferService::wait(const Uuid& task_id) {
  TransferTask task;
  {
    std::lock_guard lock(mu_);
    const auto it = tasks_.find(task_id);
    if (it == tasks_.end()) {
      throw TransferError("Globus: unknown task " + task_id.str());
    }
    task = it->second;
  }
  sim::vmerge(task.completion_vtime);
  if (task.status == TaskStatus::kFailed) {
    throw TransferError("Globus transfer " + task_id.str() +
                        " failed: " + task.error);
  }
}

void TransferService::set_endpoint_failing(const Uuid& endpoint_id,
                                           bool failing) {
  std::lock_guard lock(mu_);
  const auto it = endpoints_.find(endpoint_id);
  if (it == endpoints_.end()) {
    throw TransferError("Globus: unknown endpoint " + endpoint_id.str());
  }
  it->second.failing = failing;
}

std::size_t TransferService::task_count() const {
  std::lock_guard lock(mu_);
  return tasks_.size();
}

}  // namespace ps::globus
