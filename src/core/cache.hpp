// LRU cache of deserialized objects.
//
// The Store caches *after* deserialization "to avoid duplicate
// deserializations" (paper section 3.5). Values are type-erased shared
// pointers tagged with their type so a mistyped lookup misses rather than
// aliasing. Every thread resolving through a store shares the cache's one
// mutex, so its critical sections neither allocate nor free: an insert
// builds its entry before locking, and replaced, evicted and erased entries
// (possibly the last reference to a large object) are destroyed after
// unlocking.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <typeindex>
#include <unordered_map>

namespace ps::core {

class ObjectCache {
 public:
  /// `capacity` = maximum number of cached objects (LRU eviction).
  /// Zero disables caching entirely.
  explicit ObjectCache(std::size_t capacity = 16);

  /// Inserts (or refreshes) `value` under `key`.
  template <typename T>
  void put(const std::string& key, std::shared_ptr<const T> value) {
    insert(key, std::type_index(typeid(T)), std::move(value));
  }

  /// Returns the cached object if present *and* of type T, refreshing its
  /// LRU position. An entry of another type is a miss and keeps its place.
  template <typename T>
  std::shared_ptr<const T> get(const std::string& key) {
    return std::static_pointer_cast<const T>(
        lookup(key, std::type_index(typeid(T))));
  }

  bool contains(const std::string& key) const;
  void erase(const std::string& key);
  void clear();
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  std::size_t hits() const;
  std::size_t misses() const;

  /// Entries dropped by LRU capacity pressure (never counts erase/clear).
  std::size_t evictions() const;

 private:
  struct Entry {
    std::string key;
    std::type_index type;
    std::shared_ptr<const void> value;
  };

  using Lru = std::list<Entry>;
  /// Keys view the owning entry's `key`, so re-pointing an index node at a
  /// new entry never copies a string.
  using Index = std::unordered_map<std::string_view, Lru::iterator>;

  void insert(const std::string& key, std::type_index type,
              std::shared_ptr<const void> value);
  std::shared_ptr<const void> lookup(const std::string& key,
                                     std::type_index type);

  mutable std::mutex mu_;
  std::size_t capacity_;
  Lru lru_;  // front = most recent
  Index index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace ps::core
