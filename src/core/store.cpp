#include "core/store.hpp"

#include <map>

namespace ps::core {

Store::Store(std::string name, std::shared_ptr<Connector> connector,
             Options options)
    : name_(std::move(name)),
      connector_(std::move(connector)),
      options_(options),
      cache_(options.cache_size) {
  if (!connector_) {
    throw ConnectorError("Store '" + name_ + "': null connector");
  }
}

void Store::close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    connector_->close();
  }
}

namespace {

/// The per-process registry slot type (see Process::local).
struct StoreRegistry {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<Store>> stores;
};

StoreRegistry& registry() {
  return proc::current_process().local<StoreRegistry>();
}

}  // namespace

void register_store(std::shared_ptr<Store> store, bool overwrite) {
  if (!store) throw NotRegisteredError("register_store: null store");
  StoreRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  const auto it = reg.stores.find(store->name());
  if (it != reg.stores.end() && it->second != store && !overwrite) {
    throw NotRegisteredError("store '" + store->name() +
                             "' already registered in this process");
  }
  reg.stores[store->name()] = std::move(store);
}

std::shared_ptr<Store> get_store(const std::string& name) {
  StoreRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  const auto it = reg.stores.find(name);
  return it == reg.stores.end() ? nullptr : it->second;
}

void unregister_store(const std::string& name) {
  StoreRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.stores.erase(name);
}

std::shared_ptr<Store> get_or_register_store(
    const FactoryDescriptor& descriptor) {
  StoreRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  const auto it = reg.stores.find(descriptor.store_name);
  if (it != reg.stores.end()) return it->second;
  // Re-create the store in this process from the self-contained descriptor
  // (paper section 3.5: "p will initialize and register a new Store
  // instance ... with the appropriate Connector when p is resolved").
  auto connector = ConnectorRegistry::instance().reconstruct(
      descriptor.connector);
  auto store = std::make_shared<Store>(descriptor.store_name,
                                       std::move(connector));
  reg.stores[descriptor.store_name] = store;
  return store;
}

}  // namespace ps::core
