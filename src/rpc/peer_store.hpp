// Elastic distributed in-memory store (paper section 4.1.3).
//
// The Margo/UCX/ZMQ connectors spawn a storage server on each node where
// they are first initialized; the set of per-node servers forms the
// distributed store, expanding as proxies propagate to new nodes. Objects
// stay on the node that produced them; consumers on other nodes fetch them
// through an RPC over the chosen transport.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "rpc/rpc.hpp"

namespace ps::rpc {

class PeerStoreServer {
 public:
  /// Service-directory address of a node's storage server.
  static std::string address(const std::string& transport,
                             const std::string& store_id,
                             const std::string& host);

  /// Returns the storage server for (`store_id`, `host`), spawning and
  /// binding it on first use (the elastic-expansion behaviour).
  static std::shared_ptr<PeerStoreServer> ensure(
      proc::World& world, const std::string& host, const std::string& store_id,
      const TransportProfile& transport);

  PeerStoreServer(proc::World& world, const std::string& host,
                  const std::string& store_id,
                  const TransportProfile& transport);

  // -- same-node fast path ----------------------------------------------------

  void put_local(const std::string& id, BytesView data);
  std::optional<Bytes> get_local(const std::string& id) const;
  bool exists_local(const std::string& id) const;
  void evict_local(const std::string& id);
  std::size_t count() const;

  const std::string& host() const { return host_; }
  RpcServer& rpc() { return *rpc_; }

 private:
  void register_handlers();

  std::string host_;
  std::string store_id_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Bytes> objects_;
  std::shared_ptr<RpcServer> rpc_;
};

/// Node-transparent client: reads local objects directly, remote objects
/// via RPC to the owning node's server.
class PeerStoreClient {
 public:
  /// Initializes in the current process, spawning this node's server if
  /// needed (paper: "when one of these connectors is initialized for the
  /// first time in a process, it spawns a process that acts as the storage
  /// server for that node").
  PeerStoreClient(const std::string& store_id, TransportProfile transport);

  /// Stores on the local node; returns the owning host name.
  std::string put(const std::string& id, BytesView data);
  std::optional<Bytes> get(const std::string& owner_host,
                           const std::string& id);
  bool exists(const std::string& owner_host, const std::string& id);
  void evict(const std::string& owner_host, const std::string& id);

  const std::string& store_id() const { return store_id_; }
  const TransportProfile& transport() const { return transport_; }

 private:
  std::shared_ptr<PeerStoreServer> remote_server(
      const std::string& owner_host) const;

  /// The cached RPC client for `owner_host`'s server, connecting on first
  /// use. One service-directory resolve per (host, server) for the client's
  /// lifetime instead of one per call.
  RpcClient& remote_client(const std::string& owner_host);

  std::string store_id_;
  TransportProfile transport_;
  std::shared_ptr<PeerStoreServer> local_;
  std::mutex clients_mu_;
  std::unordered_map<std::string, std::unique_ptr<RpcClient>> clients_;
};

}  // namespace ps::rpc
