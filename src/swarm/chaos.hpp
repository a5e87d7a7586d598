// Fault injection decorator for swarm testing and negative CI gates.
//
// Wraps any Connector and perturbs the read path on demand: added per-call
// latency (a congested or degraded source), corrupted bytes for chosen
// object ids (bit rot / a bad NIC), or dropped objects (a replica that
// lost data). Writes, presence probes and evictions pass through untouched,
// batches as batches — the point is to exercise the swarm scheduler's
// verify/repair/timeout logic, whose discovery must keep seeing the replica
// as "present".
//
// Faults are process-local state: config() forwards the inner connector's
// recipe, so a proxy resolved elsewhere reconstructs the healthy channel.
#pragma once

#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/connector.hpp"

namespace ps::swarm {

class FaultInjectedConnector : public core::Connector {
 public:
  explicit FaultInjectedConnector(std::shared_ptr<core::Connector> inner);

  /// Adds `seconds` of virtual latency to every get/get_batch call.
  void set_get_delay(double seconds);
  /// Flips a byte of `object_id`'s value on every read (hash mismatch).
  void corrupt(const std::string& object_id);
  /// Makes `object_id` read as missing.
  void drop(const std::string& object_id);
  void clear_faults();

  std::string type() const override { return inner_->type(); }
  core::ConnectorConfig config() const override { return inner_->config(); }
  core::ConnectorTraits traits() const override { return inner_->traits(); }

  core::Key put(BytesView data) override { return inner_->put(data); }
  core::Key put_hinted(BytesView data,
                       const core::PutHints& hints) override {
    return inner_->put_hinted(data, hints);
  }
  bool put_at(const core::Key& key, BytesView data) override {
    return inner_->put_at(key, data);
  }
  core::Key reserve_key() override { return inner_->reserve_key(); }
  std::vector<core::Key> put_batch(const std::vector<Bytes>& items) override {
    return inner_->put_batch(items);
  }

  std::optional<Bytes> get(const core::Key& key) override;
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<core::Key>& keys) override;

  bool exists(const core::Key& key) override { return inner_->exists(key); }
  std::vector<bool> exists_batch(
      const std::vector<core::Key>& keys) override {
    return inner_->exists_batch(keys);
  }
  void evict(const core::Key& key) override { inner_->evict(key); }
  void evict_batch(const std::vector<core::Key>& keys) override {
    inner_->evict_batch(keys);
  }
  void close() override { inner_->close(); }

 private:
  void apply_delay();
  std::optional<Bytes> mutate(const core::Key& key,
                              std::optional<Bytes> value);

  std::shared_ptr<core::Connector> inner_;
  mutable std::mutex mu_;
  double get_delay_s_ = 0.0;
  std::set<std::string> corrupted_;
  std::set<std::string> dropped_;
};

}  // namespace ps::swarm
