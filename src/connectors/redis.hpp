// RedisConnector (paper section 4.1.2): mediated communication through an
// existing Redis-like server. The implementation is deliberately thin — the
// Python original is 31 lines — because the Connector protocol does all the
// heavy lifting; this is the paper's evidence that the proxy model extends
// easily to new mediated channels.
#pragma once

#include <string>

#include "core/connector.hpp"
#include "kv/client.hpp"

namespace ps::connectors {

class RedisConnector : public core::Connector {
 public:
  /// `address` of a running kv::KvServer, e.g. kv_address(host, name).
  explicit RedisConnector(const std::string& address);

  std::string type() const override { return "redis"; }
  core::ConnectorConfig config() const override;
  core::ConnectorTraits traits() const override;

  core::Key put(BytesView data) override;
  /// Pipelined bulk put: one round trip for the whole batch.
  std::vector<core::Key> put_batch(const std::vector<Bytes>& items) override;
  std::optional<Bytes> get(const core::Key& key) override;
  /// Pipelined bulk get (MGET): one round trip for the whole batch.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<core::Key>& keys) override;
  bool exists(const core::Key& key) override;
  /// Pipelined bulk presence check: one round trip for the whole batch.
  std::vector<bool> exists_batch(const std::vector<core::Key>& keys) override;
  void evict(const core::Key& key) override;
  /// Pipelined bulk eviction (DEL): one round trip for the whole batch.
  void evict_batch(const std::vector<core::Key>& keys) override;
  bool put_at(const core::Key& key, BytesView data) override;
  core::Key reserve_key() override;

 private:
  std::string address_;
  kv::KvClient client_;
};

}  // namespace ps::connectors
