#include "rpc/peer_store.hpp"

#include "common/error.hpp"
#include "proc/process.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"

namespace ps::rpc {

namespace {
/// Serializes ensure() so concurrent first-touch from several threads
/// spawns exactly one server per (store, host).
std::mutex g_ensure_mu;
}  // namespace

std::string PeerStoreServer::address(const std::string& transport,
                                     const std::string& store_id,
                                     const std::string& host) {
  return "peerstore://" + transport + "/" + store_id + "/" + host;
}

std::shared_ptr<PeerStoreServer> PeerStoreServer::ensure(
    proc::World& world, const std::string& host, const std::string& store_id,
    const TransportProfile& transport) {
  std::lock_guard lock(g_ensure_mu);
  const std::string addr = address(transport.name, store_id, host);
  if (auto existing = world.services().try_resolve<PeerStoreServer>(addr)) {
    return existing;
  }
  auto server =
      std::make_shared<PeerStoreServer>(world, host, store_id, transport);
  world.services().bind<PeerStoreServer>(addr, server);
  return server;
}

PeerStoreServer::PeerStoreServer(proc::World& world, const std::string& host,
                                 const std::string& store_id,
                                 const TransportProfile& transport)
    : host_(host),
      store_id_(store_id),
      rpc_(RpcServer::start(world, host, "peerstore-" + store_id,
                            transport)) {
  register_handlers();
}

void PeerStoreServer::register_handlers() {
  rpc_->register_handler("get", [this](BytesView request) {
    const auto id = serde::from_bytes<std::string>(request);
    return serde::to_bytes(get_local(id));
  });
  rpc_->register_handler("exists", [this](BytesView request) {
    const auto id = serde::from_bytes<std::string>(request);
    return serde::to_bytes(exists_local(id));
  });
  rpc_->register_handler("evict", [this](BytesView request) {
    const auto id = serde::from_bytes<std::string>(request);
    evict_local(id);
    return serde::to_bytes(true);
  });
}

void PeerStoreServer::put_local(const std::string& id, BytesView data) {
  std::lock_guard lock(mu_);
  objects_[id] = Bytes(data);
}

std::optional<Bytes> PeerStoreServer::get_local(const std::string& id) const {
  std::lock_guard lock(mu_);
  const auto it = objects_.find(id);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

bool PeerStoreServer::exists_local(const std::string& id) const {
  std::lock_guard lock(mu_);
  return objects_.contains(id);
}

void PeerStoreServer::evict_local(const std::string& id) {
  std::lock_guard lock(mu_);
  objects_.erase(id);
}

std::size_t PeerStoreServer::count() const {
  std::lock_guard lock(mu_);
  return objects_.size();
}

PeerStoreClient::PeerStoreClient(const std::string& store_id,
                                 TransportProfile transport)
    : store_id_(store_id), transport_(std::move(transport)) {
  proc::Process& process = proc::current_process();
  local_ = PeerStoreServer::ensure(process.world(), process.host(), store_id_,
                                   transport_);
}

std::shared_ptr<PeerStoreServer> PeerStoreClient::remote_server(
    const std::string& owner_host) const {
  proc::World& world = proc::current_process().world();
  auto server = world.services().try_resolve<PeerStoreServer>(
      PeerStoreServer::address(transport_.name, store_id_, owner_host));
  if (!server) {
    throw ConnectorError("PeerStore: no storage server for store '" +
                         store_id_ + "' on host '" + owner_host + "'");
  }
  return server;
}

RpcClient& PeerStoreClient::remote_client(const std::string& owner_host) {
  remote_server(owner_host);  // fail fast with a specific error if absent
  std::lock_guard lock(clients_mu_);
  auto it = clients_.find(owner_host);
  if (it == clients_.end()) {
    it = clients_
             .emplace(owner_host,
                      std::make_unique<RpcClient>(rpc_address(
                          transport_.name, owner_host,
                          "peerstore-" + store_id_)))
             .first;
  }
  return *it->second;
}

std::string PeerStoreClient::put(const std::string& id, BytesView data) {
  // Local in-memory store: pay a memory copy plus transport registration.
  sim::vadvance(transport_.sw_overhead_s +
                static_cast<double>(data.size()) / 10e9);
  local_->put_local(id, data);
  return local_->host();
}

std::optional<Bytes> PeerStoreClient::get(const std::string& owner_host,
                                          const std::string& id) {
  if (owner_host == local_->host()) {
    sim::vadvance(transport_.sw_overhead_s);
    const auto value = local_->get_local(id);
    if (value) {
      sim::vadvance(static_cast<double>(value->size()) / 10e9);
    }
    return value;
  }
  const Bytes response =
      remote_client(owner_host).call("get", serde::to_bytes(id));
  return serde::from_bytes<std::optional<Bytes>>(response);
}

bool PeerStoreClient::exists(const std::string& owner_host,
                             const std::string& id) {
  if (owner_host == local_->host()) return local_->exists_local(id);
  return serde::from_bytes<bool>(
      remote_client(owner_host).call("exists", serde::to_bytes(id)));
}

void PeerStoreClient::evict(const std::string& owner_host,
                            const std::string& id) {
  if (owner_host == local_->host()) {
    local_->evict_local(id);
    return;
  }
  remote_client(owner_host).call("evict", serde::to_bytes(id));
}

}  // namespace ps::rpc
