#include "kv/client.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "proc/process.hpp"
#include "sim/vtime.hpp"

namespace ps::kv {

namespace {

/// The queue-wait gauge, bound once and never destroyed, like the registry
/// itself: pool threads may still issue requests during exit.
const obs::GaugeHandle& queue_wait_gauge() {
  static const obs::GaugeHandle* gauge =
      new obs::GaugeHandle("kv.client.queue_wait_s", obs::GaugeAgg::kMax);
  return *gauge;
}

}  // namespace

KvClient::KvClient(const std::string& address)
    : address_(address),
      server_(proc::current_process().world().services().resolve<KvServer>(
          address)) {}

net::PipelinedChannel& KvClient::channel() const {
  return proc::current_process()
      .local<net::ChannelRegistry>()
      .channel_for(server_);
}

net::WireSample KvClient::wire(std::size_t request_bytes,
                               std::size_t response_bytes) {
  proc::World& world = proc::current_process().world();
  const std::string& client_host = proc::current_process().host();
  const std::string& server_host = server_->host();

  // Request travels to the server on the channel's request lane...
  const double request_cost =
      world.fabric().transfer_time(client_host, server_host, request_bytes);
  return channel().transact(sim::vnow(), request_cost, [&](double arrival) {
    // ...queues behind other requests on the single-threaded server...
    const double payload =
        static_cast<double>(std::max(request_bytes, response_bytes));
    const double service =
        server_->service_time(static_cast<std::size_t>(payload));
    const double done = server_->queue().schedule(arrival, service);
    // Time spent behind other requests — the client-observed server backlog.
    // Gauge (not histogram): psctl top reads it as a point-in-time depth
    // signal; kMax makes the cross-site aggregate the worst backlog.
    if (obs::enabled()) {
      queue_wait_gauge().get().set(std::max(0.0, done - arrival - service));
    }
    // ...and the response travels back on the response lane.
    const double response_cost = world.fabric().transfer_time(
        server_host, client_host, response_bytes);
    return std::pair<double, double>{done, response_cost};
  });
}

double KvClient::round_trip(std::size_t request_bytes,
                            std::size_t response_bytes) {
  const net::WireSample sample = wire(request_bytes, response_bytes);
  sim::vset(sample.completion);
  return sample.arrival;
}

void KvClient::set(const std::string& key, BytesView value,
                   std::optional<std::chrono::milliseconds> ttl) {
  const double arrival = round_trip(value.size() + key.size(), 8);
  server_->set(key, value, ttl, arrival);
}

void KvClient::set_many(
    const std::vector<std::pair<std::string, Bytes>>& pairs) {
  std::size_t total = 0;
  for (const auto& [key, value] : pairs) total += key.size() + value.size();
  const double arrival = round_trip(total, 8 * std::max<std::size_t>(
                                               pairs.size(), 1));
  for (const auto& [key, value] : pairs) {
    server_->set(key, value, std::nullopt, arrival);
  }
}

std::optional<Bytes> KvClient::get(const std::string& key) {
  // Peek the length (not the value) for response cost accounting.
  const std::size_t response_bytes =
      server_->value_size(key, sim::vnow()).value_or(8);
  const double arrival = round_trip(key.size(), response_bytes);
  // Re-read at the arrival time so TTL expiry is judged server-side.
  return server_->get(key, arrival);
}

std::vector<std::optional<Bytes>> KvClient::get_many(
    const std::vector<std::string>& keys) {
  // Peek sizes for response cost accounting (as in get()).
  const double probe_now = sim::vnow();
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  for (const std::string& key : keys) {
    request_bytes += key.size();
    response_bytes += server_->value_size(key, probe_now).value_or(8);
  }
  const double arrival =
      round_trip(request_bytes, std::max<std::size_t>(response_bytes, 8));
  // Re-read at the arrival time so TTL expiry is judged server-side.
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    out.push_back(server_->get(key, arrival));
  }
  return out;
}

bool KvClient::exists(const std::string& key) {
  const double arrival = round_trip(key.size(), 8);
  return server_->exists(key, arrival);
}

std::vector<bool> KvClient::exists_many(const std::vector<std::string>& keys) {
  std::size_t request_bytes = 0;
  for (const std::string& key : keys) request_bytes += key.size();
  const double arrival = round_trip(
      request_bytes, 8 * std::max<std::size_t>(keys.size(), 1));
  std::vector<bool> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    out.push_back(server_->exists(key, arrival));
  }
  return out;
}

bool KvClient::del(const std::string& key) {
  round_trip(key.size(), 8);
  return server_->del(key);
}

std::vector<bool> KvClient::del_many(const std::vector<std::string>& keys) {
  std::size_t request_bytes = 0;
  for (const std::string& key : keys) request_bytes += key.size();
  wire(request_bytes, 8 * std::max<std::size_t>(keys.size(), 1));
  std::vector<bool> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    out.push_back(server_->del(key));
  }
  return out;
}

core::Future<std::vector<std::optional<Bytes>>> KvClient::get_many_async(
    const std::vector<std::string>& keys) {
  const double probe_now = sim::vnow();
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  for (const std::string& key : keys) {
    request_bytes += key.size();
    response_bytes += server_->value_size(key, probe_now).value_or(8);
  }
  const net::WireSample sample =
      wire(request_bytes, std::max<std::size_t>(response_bytes, 8));
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    out.push_back(server_->get(key, sample.arrival));
  }
  core::Promise<std::vector<std::optional<Bytes>>> promise;
  core::complete_at(promise, std::move(out), sample.completion);
  return promise.future();
}

}  // namespace ps::kv
