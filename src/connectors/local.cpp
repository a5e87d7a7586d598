#include "connectors/local.hpp"

#include "common/uuid.hpp"
#include "connectors/costs.hpp"

namespace ps::connectors {

LocalConnector::LocalConnector()
    : address_("local://" + Uuid::random().str()),
      table_(std::make_shared<Table>()) {
  current_world().services().bind<Table>(address_, table_);
}

LocalConnector::LocalConnector(const std::string& address)
    : address_(address),
      table_(current_world().services().resolve<Table>(address)) {}

core::ConnectorConfig LocalConnector::config() const {
  return core::ConnectorConfig{.type = "local",
                               .params = {{"address", address_}}};
}

core::ConnectorTraits LocalConnector::traits() const {
  return core::ConnectorTraits{.storage = "memory",
                               .intra_site = true,
                               .inter_site = false,
                               .persistent = false};
}

std::shared_ptr<const Bytes> LocalConnector::find(const core::Key& key) const {
  std::lock_guard lock(table_->mu);
  const auto it = table_->objects.find(key.object_id);
  return it == table_->objects.end() ? nullptr : it->second;
}

void LocalConnector::store(std::string object_id, BytesView data) {
  auto blob = std::make_shared<const Bytes>(data);
  {
    std::lock_guard lock(table_->mu);
    table_->objects.try_emplace(std::move(object_id)).first->second.swap(blob);
  }
  // `blob` now holds the replaced payload, if any: freed after unlocking.
}

core::Key LocalConnector::put(BytesView data) {
  charge_mem(data.size());
  core::Key key{.object_id = Uuid::random().str(), .meta = {}};
  store(key.object_id, data);
  return key;
}

std::optional<Bytes> LocalConnector::get(const core::Key& key) {
  const std::shared_ptr<const Bytes> blob = find(key);
  if (!blob) return std::nullopt;
  charge_mem(blob->size());
  return *blob;
}

std::vector<std::optional<Bytes>> LocalConnector::get_batch(
    const std::vector<core::Key>& keys) {
  std::vector<std::shared_ptr<const Bytes>> blobs;
  blobs.reserve(keys.size());
  {
    std::lock_guard lock(table_->mu);
    for (const core::Key& key : keys) {
      const auto it = table_->objects.find(key.object_id);
      blobs.push_back(it == table_->objects.end() ? nullptr : it->second);
    }
  }
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  for (const std::shared_ptr<const Bytes>& blob : blobs) {
    if (!blob) {
      out.emplace_back(std::nullopt);
      continue;
    }
    charge_mem(blob->size());
    out.emplace_back(*blob);
  }
  return out;
}

bool LocalConnector::exists(const core::Key& key) {
  std::lock_guard lock(table_->mu);
  return table_->objects.contains(key.object_id);
}

std::vector<bool> LocalConnector::exists_batch(
    const std::vector<core::Key>& keys) {
  std::vector<bool> out;
  out.reserve(keys.size());
  std::lock_guard lock(table_->mu);
  for (const core::Key& key : keys) {
    out.push_back(table_->objects.contains(key.object_id));
  }
  return out;
}

void LocalConnector::evict(const core::Key& key) {
  decltype(table_->objects)::node_type dropped;  // freed after unlocking
  std::lock_guard lock(table_->mu);
  dropped = table_->objects.extract(key.object_id);
}

bool LocalConnector::put_at(const core::Key& key, BytesView data) {
  charge_mem(data.size());
  store(key.object_id, data);
  return true;
}

core::Key LocalConnector::reserve_key() {
  return core::Key{.object_id = Uuid::random().str(), .meta = {}};
}

std::size_t LocalConnector::count() const {
  std::lock_guard lock(table_->mu);
  return table_->objects.size();
}

namespace {
const core::ConnectorRegistration kRegister(
    "local", [](const core::ConnectorConfig& cfg) {
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<LocalConnector>(cfg.param("address")));
    });
}  // namespace

}  // namespace ps::connectors
