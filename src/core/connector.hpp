// The Connector protocol (paper section 3.4).
//
// A Connector is a low-level interface to a mediated communication channel
// operating on byte strings and keys. Implementations must provide evict,
// exists, get, and put; a serializable ConnectorConfig allows a factory that
// travels to another process to reconstruct an equivalent connector there
// (the Store re-registration mechanism of section 3.5). Third-party
// connectors plug in through the ConnectorRegistry.
//
// The data path is 11 synchronous verbs: put, put_hinted, put_at,
// reserve_key, get, exists and evict, plus the batch forms put_batch,
// get_batch, exists_batch and evict_batch. Asynchrony lives above and
// below the protocol, never in it: a proxy overlaps its resolve with
// computation (Proxy::resolve_async), and the wire clients issue
// completion-driven requests (kv::KvClient::get_many_async,
// rpc::RpcClient::call_async).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "core/key.hpp"
#include "serde/serde.hpp"

namespace ps::core {

/// Serializable description sufficient to reconstruct a connector in
/// another process (addresses, paths, policies — never live handles).
struct ConnectorConfig {
  std::string type;
  std::map<std::string, std::string> params;

  bool operator==(const ConnectorConfig&) const = default;

  auto serde_members() { return std::tie(type, params); }
  auto serde_members() const { return std::tie(type, params); }

  const std::string& param(const std::string& name) const;
  std::string param_or(const std::string& name, std::string fallback) const;
};

/// Constraints a producer attaches to an individual put/proxy call.
/// Interpreted by policy-routing connectors (MultiConnector); plain
/// connectors ignore them.
struct PutHints {
  /// Tags the chosen channel must carry (e.g. sites that must be able to
  /// access the object: {"theta", "remote-gpu"}).
  std::set<std::string> required_tags;

  bool operator==(const PutHints&) const = default;

  auto serde_members() { return std::tie(required_tags); }
  auto serde_members() const { return std::tie(required_tags); }
};

/// Capability summary used for Table 1 and MultiConnector policies.
struct ConnectorTraits {
  std::string storage;     // "disk", "memory", "hybrid"
  bool intra_site = false;
  bool inter_site = false;
  bool persistent = false;
};

class Connector {
 public:
  virtual ~Connector() = default;

  /// Connector type name (e.g. "file", "redis", "endpoint").
  virtual std::string type() const = 0;

  /// Serializable reconstruction recipe for this connector.
  virtual ConnectorConfig config() const = 0;

  virtual ConnectorTraits traits() const = 0;

  /// Stores `data`, returning a key that any process can later resolve.
  virtual Key put(BytesView data) = 0;

  /// Stores `data` with routing constraints. Connectors without policy
  /// routing ignore the hints.
  virtual Key put_hinted(BytesView data, const PutHints& hints) {
    (void)hints;
    return put(data);
  }

  /// Stores `data` under a caller-chosen key (required for data-flow
  /// proxies, where consumers hold keys to objects produced later).
  /// Returns false when the connector does not support addressed writes.
  virtual bool put_at(const Key& key, BytesView data) {
    (void)key;
    (void)data;
    return false;
  }

  /// A fresh key an object could later be stored under with put_at.
  /// Only meaningful for connectors where put_at returns true.
  virtual Key reserve_key() {
    throw ConnectorError(type() + ": addressed writes not supported");
  }

  /// Stores many objects. The default loops over put; connectors with bulk
  /// transfer support (Globus) override this to batch.
  virtual std::vector<Key> put_batch(const std::vector<Bytes>& items);

  /// Retrieves the object, or nullopt if it does not exist (evicted, never
  /// stored, or expired).
  virtual std::optional<Bytes> get(const Key& key) = 0;

  /// Retrieves many objects, position-for-position (nullopt per missing
  /// key). The default loops over get; connectors with a pipelined wire
  /// protocol (kv, endpoint) override this so a whole batch costs one
  /// round trip (mirrors put_batch).
  virtual std::vector<std::optional<Bytes>> get_batch(
      const std::vector<Key>& keys);

  virtual bool exists(const Key& key) = 0;

  /// Presence check for many keys, position-for-position. The default loops
  /// over exists; connectors with a pipelined wire protocol (kv) override
  /// this so a whole probe batch costs one round trip — swarm chunk
  /// discovery issues one of these per backend.
  virtual std::vector<bool> exists_batch(const std::vector<Key>& keys);

  /// Removes the object. Eviction of a missing key is a no-op.
  virtual void evict(const Key& key) = 0;

  /// Removes many objects. The default loops over evict; connectors with a
  /// pipelined wire protocol (kv) override this so a whole eviction batch
  /// costs one round trip (the cleanup dual of exists_batch) — stream
  /// payload eviction and swarm manifest cleanup issue one per backend.
  virtual void evict_batch(const std::vector<Key>& keys);

  /// Releases resources. Further operations may throw ConnectorError.
  virtual void close() {}
};

/// Global registry mapping connector type names to reconstruction functions.
/// Mirrors Python's import-time registration: the registry is process-wide
/// (code, not data), while connector *instances* live per simulated process.
class ConnectorRegistry {
 public:
  using FactoryFn =
      std::function<std::shared_ptr<Connector>(const ConnectorConfig&)>;

  static ConnectorRegistry& instance();

  /// Registers `fn` for connector type `type`. Re-registration replaces.
  void register_type(const std::string& type, FactoryFn fn);

  /// Reconstructs a connector from its config in the current process.
  /// Throws NotRegisteredError for unknown types.
  std::shared_ptr<Connector> reconstruct(const ConnectorConfig& config) const;

  bool has_type(const std::string& type) const;
  std::vector<std::string> types() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, FactoryFn> factories_;
};

/// Helper for static registration:
///   namespace { const ConnectorRegistration reg("file", &make_file); }
struct ConnectorRegistration {
  ConnectorRegistration(const std::string& type,
                        ConnectorRegistry::FactoryFn fn) {
    ConnectorRegistry::instance().register_type(type, std::move(fn));
  }
};

}  // namespace ps::core
