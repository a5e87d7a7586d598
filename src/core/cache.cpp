#include "core/cache.hpp"

#include <iterator>

namespace ps::core {

ObjectCache::ObjectCache(std::size_t capacity) : capacity_(capacity) {}

void ObjectCache::insert(const std::string& key, std::type_index type,
                         std::shared_ptr<const void> value) {
  if (capacity_ == 0) return;
  Lru fresh;
  fresh.push_back(Entry{key, type, std::move(value)});
  const std::string_view view = fresh.front().key;
  Lru dropped;  // the replaced or evicted entry, destroyed after unlocking
  std::lock_guard lock(mu_);
  Index::node_type slot;
  if (const auto it = index_.find(view); it != index_.end()) {
    dropped.splice(dropped.end(), lru_, it->second);
    slot = index_.extract(it);
  } else if (lru_.size() >= capacity_) {
    // Full: the least recent entry makes room, and its index node is
    // re-pointed at the new entry.
    slot = index_.extract(lru_.back().key);
    dropped.splice(dropped.end(), lru_, std::prev(lru_.end()));
    ++evictions_;
  }
  lru_.splice(lru_.begin(), fresh);
  if (slot) {
    slot.key() = view;
    slot.mapped() = lru_.begin();
    index_.insert(std::move(slot));
  } else {
    index_.emplace(view, lru_.begin());  // only while the cache fills up
  }
}

std::shared_ptr<const void> ObjectCache::lookup(const std::string& key,
                                                std::type_index type) {
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->type != type) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  // Refresh LRU position.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

bool ObjectCache::contains(const std::string& key) const {
  std::lock_guard lock(mu_);
  return index_.contains(key);
}

void ObjectCache::erase(const std::string& key) {
  Lru dropped;  // destroyed after unlocking
  Index::node_type slot;
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  dropped.splice(dropped.end(), lru_, it->second);
  slot = index_.extract(it);
}

void ObjectCache::clear() {
  Lru dropped;  // destroyed after unlocking
  Index index;
  std::lock_guard lock(mu_);
  dropped.swap(lru_);
  index.swap(index_);
}

std::size_t ObjectCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::size_t ObjectCache::hits() const {
  std::lock_guard lock(mu_);
  return hits_;
}

std::size_t ObjectCache::misses() const {
  std::lock_guard lock(mu_);
  return misses_;
}

std::size_t ObjectCache::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

}  // namespace ps::core
