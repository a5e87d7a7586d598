#include "connectors/redis.hpp"

#include "common/uuid.hpp"

namespace ps::connectors {

RedisConnector::RedisConnector(const std::string& address)
    : address_(address), client_(address) {}

core::ConnectorConfig RedisConnector::config() const {
  return core::ConnectorConfig{.type = "redis",
                               .params = {{"address", address_}}};
}

core::ConnectorTraits RedisConnector::traits() const {
  return core::ConnectorTraits{.storage = "hybrid",
                               .intra_site = true,
                               .inter_site = false,
                               .persistent = true};
}

core::Key RedisConnector::put(BytesView data) {
  core::Key key = reserve_key();
  put_at(key, data);
  return key;
}

core::Key RedisConnector::reserve_key() {
  return core::Key{.object_id = Uuid::random().str(), .meta = {}};
}

bool RedisConnector::put_at(const core::Key& key, BytesView data) {
  client_.set(key.object_id, data);
  return true;
}

std::vector<core::Key> RedisConnector::put_batch(
    const std::vector<Bytes>& items) {
  std::vector<core::Key> keys;
  std::vector<std::pair<std::string, Bytes>> pairs;
  keys.reserve(items.size());
  pairs.reserve(items.size());
  for (const Bytes& item : items) {
    keys.push_back(reserve_key());
    pairs.emplace_back(keys.back().object_id, item);
  }
  client_.set_many(pairs);
  return keys;
}

std::optional<Bytes> RedisConnector::get(const core::Key& key) {
  return client_.get(key.object_id);
}

std::vector<std::optional<Bytes>> RedisConnector::get_batch(
    const std::vector<core::Key>& keys) {
  std::vector<std::string> names;
  names.reserve(keys.size());
  for (const core::Key& key : keys) names.push_back(key.object_id);
  return client_.get_many(names);
}

bool RedisConnector::exists(const core::Key& key) {
  return client_.exists(key.object_id);
}

std::vector<bool> RedisConnector::exists_batch(
    const std::vector<core::Key>& keys) {
  std::vector<std::string> names;
  names.reserve(keys.size());
  for (const core::Key& key : keys) names.push_back(key.object_id);
  return client_.exists_many(names);
}

void RedisConnector::evict(const core::Key& key) {
  client_.del(key.object_id);
}

void RedisConnector::evict_batch(const std::vector<core::Key>& keys) {
  std::vector<std::string> names;
  names.reserve(keys.size());
  for (const core::Key& key : keys) names.push_back(key.object_id);
  client_.del_many(names);
}

namespace {
const core::ConnectorRegistration kRegister(
    "redis", [](const core::ConnectorConfig& cfg) {
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<RedisConnector>(cfg.param("address")));
    });
}  // namespace

}  // namespace ps::connectors
