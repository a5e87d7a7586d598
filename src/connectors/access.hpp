// Access-controlled channel wrapper (paper section 3.3: "proxies can be
// moved in place of confidential data (e.g., patient health information)
// while ensuring that the data can be resolved only where permitted").
//
// AccessControlConnector decorates any inner connector with a site
// allowlist: puts record the policy, and a get/exists issued from a process
// whose fabric site is not allowed raises AccessDeniedError — so a proxy of
// confidential data can circulate freely while the bytes remain fenced.
#pragma once

#include <memory>
#include <set>
#include <string>

#include "common/error.hpp"
#include "core/connector.hpp"

namespace ps::connectors {

/// Raised when a process outside the allowlist resolves a protected object.
class AccessDeniedError : public ConnectorError {
 public:
  using ConnectorError::ConnectorError;
};

class AccessControlConnector : public core::Connector {
 public:
  /// Objects put through this connector resolve only from processes whose
  /// fabric site is in `allowed_sites`.
  AccessControlConnector(std::shared_ptr<core::Connector> inner,
                         std::set<std::string> allowed_sites);

  std::string type() const override { return "access"; }
  core::ConnectorConfig config() const override;
  core::ConnectorTraits traits() const override { return inner_->traits(); }

  core::Key put(BytesView data) override;
  core::Key put_hinted(BytesView data, const core::PutHints& hints) override;
  std::vector<core::Key> put_batch(const std::vector<Bytes>& items) override;
  std::optional<Bytes> get(const core::Key& key) override;
  /// Checks access once (it depends only on the caller's site), then
  /// forwards the whole batch, so a pipelined inner keeps one round trip.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<core::Key>& keys) override;
  bool exists(const core::Key& key) override;
  /// Checks access once, then forwards the whole batch.
  std::vector<bool> exists_batch(const std::vector<core::Key>& keys) override;
  void evict(const core::Key& key) override;
  void evict_batch(const std::vector<core::Key>& keys) override;
  bool put_at(const core::Key& key, BytesView data) override;
  core::Key reserve_key() override;
  void close() override { inner_->close(); }

  const std::set<std::string>& allowed_sites() const { return allowed_; }

 private:
  /// Throws AccessDeniedError unless the current process's site is allowed.
  void check_access(const core::Key& key) const;

  std::shared_ptr<core::Connector> inner_;
  std::set<std::string> allowed_;
};

}  // namespace ps::connectors
