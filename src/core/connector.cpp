#include "core/connector.hpp"

namespace ps::core {

const std::string& ConnectorConfig::param(const std::string& name) const {
  const auto it = params.find(name);
  if (it == params.end()) {
    throw ConnectorError("ConnectorConfig(" + type + ") missing param '" +
                         name + "'");
  }
  return it->second;
}

std::string ConnectorConfig::param_or(const std::string& name,
                                      std::string fallback) const {
  const auto it = params.find(name);
  return it == params.end() ? std::move(fallback) : it->second;
}

std::vector<Key> Connector::put_batch(const std::vector<Bytes>& items) {
  std::vector<Key> keys;
  keys.reserve(items.size());
  for (const Bytes& item : items) keys.push_back(put(item));
  return keys;
}

std::vector<std::optional<Bytes>> Connector::get_batch(
    const std::vector<Key>& keys) {
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  for (const Key& key : keys) out.push_back(get(key));
  return out;
}

std::vector<bool> Connector::exists_batch(const std::vector<Key>& keys) {
  std::vector<bool> out;
  out.reserve(keys.size());
  for (const Key& key : keys) out.push_back(exists(key));
  return out;
}

void Connector::evict_batch(const std::vector<Key>& keys) {
  for (const Key& key : keys) evict(key);
}

ConnectorRegistry& ConnectorRegistry::instance() {
  static ConnectorRegistry* registry = new ConnectorRegistry();
  return *registry;
}

void ConnectorRegistry::register_type(const std::string& type, FactoryFn fn) {
  std::lock_guard lock(mu_);
  factories_[type] = std::move(fn);
}

std::shared_ptr<Connector> ConnectorRegistry::reconstruct(
    const ConnectorConfig& config) const {
  FactoryFn fn;
  {
    std::lock_guard lock(mu_);
    const auto it = factories_.find(config.type);
    if (it == factories_.end()) {
      throw NotRegisteredError("no connector type registered as '" +
                               config.type + "'");
    }
    fn = it->second;
  }
  return fn(config);
}

bool ConnectorRegistry::has_type(const std::string& type) const {
  std::lock_guard lock(mu_);
  return factories_.contains(type);
}

std::vector<std::string> ConnectorRegistry::types() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [type, fn] : factories_) out.push_back(type);
  return out;
}

}  // namespace ps::core
