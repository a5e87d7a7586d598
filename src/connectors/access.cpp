#include "connectors/access.hpp"

#include <sstream>

#include "common/hex.hpp"
#include "connectors/costs.hpp"
#include "serde/serde.hpp"

namespace ps::connectors {

AccessControlConnector::AccessControlConnector(
    std::shared_ptr<core::Connector> inner,
    std::set<std::string> allowed_sites)
    : inner_(std::move(inner)), allowed_(std::move(allowed_sites)) {
  if (!inner_) throw ConnectorError("AccessControlConnector: null inner");
  if (allowed_.empty()) {
    throw ConnectorError("AccessControlConnector: empty allowlist");
  }
}

core::ConnectorConfig AccessControlConnector::config() const {
  core::ConnectorConfig cfg{.type = "access", .params = {}};
  cfg.params["inner"] = to_hex(serde::to_bytes(inner_->config()));
  cfg.params["allowed"] = to_hex(serde::to_bytes(allowed_));
  return cfg;
}

void AccessControlConnector::check_access(const core::Key& key) const {
  const std::string& host = current_host();
  const std::string& site = current_world().fabric().host(host).site;
  if (!allowed_.contains(site)) {
    throw AccessDeniedError("object '" + key.object_id +
                            "' may not be resolved from site '" + site + "'");
  }
}

core::Key AccessControlConnector::put(BytesView data) {
  return inner_->put(data);
}

core::Key AccessControlConnector::put_hinted(BytesView data,
                                             const core::PutHints& hints) {
  return inner_->put_hinted(data, hints);
}

std::vector<core::Key> AccessControlConnector::put_batch(
    const std::vector<Bytes>& items) {
  return inner_->put_batch(items);
}

std::optional<Bytes> AccessControlConnector::get(const core::Key& key) {
  check_access(key);
  return inner_->get(key);
}

std::vector<std::optional<Bytes>> AccessControlConnector::get_batch(
    const std::vector<core::Key>& keys) {
  if (keys.empty()) return {};
  check_access(keys.front());
  return inner_->get_batch(keys);
}

bool AccessControlConnector::exists(const core::Key& key) {
  check_access(key);
  return inner_->exists(key);
}

std::vector<bool> AccessControlConnector::exists_batch(
    const std::vector<core::Key>& keys) {
  if (keys.empty()) return {};
  check_access(keys.front());
  return inner_->exists_batch(keys);
}

void AccessControlConnector::evict(const core::Key& key) {
  inner_->evict(key);
}

void AccessControlConnector::evict_batch(const std::vector<core::Key>& keys) {
  inner_->evict_batch(keys);
}

bool AccessControlConnector::put_at(const core::Key& key, BytesView data) {
  return inner_->put_at(key, data);
}

core::Key AccessControlConnector::reserve_key() {
  return inner_->reserve_key();
}

namespace {
const core::ConnectorRegistration kRegister(
    "access", [](const core::ConnectorConfig& cfg) {
      auto inner_cfg = serde::from_bytes<core::ConnectorConfig>(
          from_hex(cfg.param("inner")));
      auto allowed = serde::from_bytes<std::set<std::string>>(
          from_hex(cfg.param("allowed")));
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<AccessControlConnector>(
              core::ConnectorRegistry::instance().reconstruct(inner_cfg),
              std::move(allowed)));
    });
}  // namespace

}  // namespace ps::connectors
