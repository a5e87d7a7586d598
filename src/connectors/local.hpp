// LocalConnector: in-memory mediated channel for testing and single-site use.
//
// Objects live in a shared in-memory table registered in the world's service
// directory, so a LocalConnector reconstructed in another simulated process
// (from a proxy's factory descriptor) sees the same objects — the minimal
// mediated channel satisfying the Connector protocol. Every thread shares
// the table's mutex, so payloads are copied in before locking, copied out
// after unlocking, and freed after unlocking.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/connector.hpp"

namespace ps::connectors {

class LocalConnector : public core::Connector {
 public:
  /// Creates a fresh channel registered in the current world.
  LocalConnector();

  /// Attaches to an existing channel by address ("local://<uuid>").
  explicit LocalConnector(const std::string& address);

  std::string type() const override { return "local"; }
  core::ConnectorConfig config() const override;
  core::ConnectorTraits traits() const override;

  core::Key put(BytesView data) override;
  std::optional<Bytes> get(const core::Key& key) override;
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<core::Key>& keys) override;
  bool exists(const core::Key& key) override;
  std::vector<bool> exists_batch(
      const std::vector<core::Key>& keys) override;
  void evict(const core::Key& key) override;
  bool put_at(const core::Key& key, BytesView data) override;
  core::Key reserve_key() override;

  const std::string& address() const { return address_; }

  /// Number of objects currently stored (test observability).
  std::size_t count() const;

 private:
  struct Table {
    mutable std::mutex mu;
    /// Immutable payloads: a reader takes a reference under the lock and
    /// copies the bytes outside it.
    std::unordered_map<std::string, std::shared_ptr<const Bytes>> objects;
  };

  /// The payload stored under `key`, or nullptr.
  std::shared_ptr<const Bytes> find(const core::Key& key) const;
  /// Stores `data` under `object_id`, replacing any previous payload.
  void store(std::string object_id, BytesView data);

  std::string address_;
  std::shared_ptr<Table> table_;
};

}  // namespace ps::connectors
