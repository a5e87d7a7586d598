// The Store (paper section 3.5).
//
// High-level, object-typed interface over a Connector: serializes objects
// with the serde framework (or registered custom serializers), caches
// deserialized objects in an LRU cache, and mints proxies whose factories
// are self-contained and serializable. Stores are registered globally
// *within a process* by name; a proxy resolved in a process without the
// store re-creates and registers it from the factory descriptor — the
// cross-process re-registration mechanism of section 3.5.
#pragma once

#include <any>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/uuid.hpp"
#include "core/cache.hpp"
#include "core/connector.hpp"
#include "core/factory.hpp"
#include "core/future.hpp"
#include "core/key.hpp"
#include "core/proxy.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "proc/process.hpp"
#include "serde/serde.hpp"

namespace ps::core {

/// Trace subject naming a (store, key) pair; every lifecycle span of a
/// proxy over that object records under this subject.
inline std::string trace_subject(const std::string& store_name,
                                 const Key& key) {
  return store_name + "/" + key.canonical();
}

namespace detail {

/// Registry handles for every Store event, op histogram and descriptor
/// resolve series, shared by all stores. Each records into the ambient
/// registry, so per-process metrics scoping attributes it to the simulated
/// site doing the work (the global registry when scoping is off).
struct StoreInstruments {
  obs::CounterHandle puts{"store.puts"};
  obs::CounterHandle gets{"store.gets"};
  obs::CounterHandle exists{"store.exists"};
  obs::CounterHandle evicts{"store.evicts"};
  obs::CounterHandle proxies{"store.proxies"};
  obs::CounterHandle cache_hits{"store.cache.hits"};
  obs::CounterHandle cache_misses{"store.cache.misses"};
  obs::CounterHandle put_bytes{"store.put.bytes"};
  obs::CounterHandle get_bytes{"store.get.bytes"};
  obs::HistogramHandle put_vtime{"store.put.vtime"};
  obs::HistogramHandle put_wall{"store.put.wall"};
  obs::HistogramHandle get_vtime{"store.get.vtime"};
  obs::HistogramHandle get_wall{"store.get.wall"};
  obs::CounterHandle resolves{"proxy.resolves"};
  obs::CounterHandle resolve_failures{"proxy.resolve_failures"};
  obs::HistogramHandle resolve_vtime{"proxy.resolve.vtime"};
  obs::HistogramHandle resolve_wall{"proxy.resolve.wall"};
};

inline const StoreInstruments& store_instruments() {
  // Never destroyed, like the registry itself, so a store op still running
  // on a pool thread at exit never races static destruction.
  static const StoreInstruments* instruments = new StoreInstruments();
  return *instruments;
}

}  // namespace detail

class Store : public std::enable_shared_from_this<Store> {
 public:
  struct Options {
    /// LRU capacity of the deserialized-object cache (0 disables).
    std::size_t cache_size = 16;

    bool operator==(const Options&) const = default;
  };

  Store(std::string name, std::shared_ptr<Connector> connector,
        Options options);

  Store(std::string name, std::shared_ptr<Connector> connector)
      : Store(std::move(name), std::move(connector), Options{}) {}

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  const std::string& name() const { return name_; }
  Connector& connector() { return *connector_; }
  const Connector& connector() const { return *connector_; }
  const Options& options() const { return options_; }
  ObjectCache& cache() { return cache_; }

  // -- object operations ------------------------------------------------

  /// Serializes and stores `value`; returns the connector key.
  template <typename T>
  Key put(const T& value) {
    check_open();
    const detail::StoreInstruments& m = detail::store_instruments();
    obs::Timer timer(&m.put_vtime.get(), &m.put_wall.get());
    const Bytes data = serialize_value(value);
    count_put(data.size());
    return connector_->put(data);
  }

  /// put with routing constraints (honored by policy-routing connectors
  /// such as MultiConnector; ignored otherwise — paper section 4.3).
  template <typename T>
  Key put(const T& value, const PutHints& hints) {
    check_open();
    const detail::StoreInstruments& m = detail::store_instruments();
    obs::Timer timer(&m.put_vtime.get(), &m.put_wall.get());
    const Bytes data = serialize_value(value);
    count_put(data.size());
    return connector_->put_hinted(data, hints);
  }

  /// Serializes and stores a batch in one connector round trip.
  template <typename T>
  std::vector<Key> put_batch(const std::vector<T>& values) {
    check_open();
    std::vector<Bytes> blobs;
    blobs.reserve(values.size());
    for (const T& value : values) {
      blobs.push_back(serialize_value(value));
      count_put(blobs.back().size());
    }
    return connector_->put_batch(blobs);
  }

  /// Stores pre-serialized blobs in one connector round trip. Callers that
  /// buffer serialized objects (the stream producer's flush path, which
  /// needs true wire sizes for its byte threshold) use this so bulk
  /// transfer still goes through Connector::put_batch.
  std::vector<Key> put_bytes_batch(const std::vector<Bytes>& blobs) {
    check_open();
    for (const Bytes& blob : blobs) count_put(blob.size());
    return connector_->put_batch(blobs);
  }

  /// Serializes `value` exactly as put() would — registered custom
  /// serializer first, serde codec otherwise — without storing it.
  template <typename T>
  Bytes serialize(const T& value) {
    return serialize_value(value);
  }

  /// Retrieves and deserializes the object, consulting the cache first.
  /// Returns nullopt when the object does not exist. With tracing enabled,
  /// the cache probe and the deserialization are spans under the (store,
  /// key) trace subject.
  template <typename T>
  std::optional<T> get(const Key& key) {
    check_open();
    const detail::StoreInstruments& m = detail::store_instruments();
    m.gets.get().inc();
    obs::Timer timer(&m.get_vtime.get(), &m.get_wall.get());
    const std::string subject = obs::TraceRecorder::global().enabled()
                                    ? trace_subject(name_, key)
                                    : std::string{};
    const std::string cache_key = key.canonical();
    {
      obs::SpanScope probe("store.cache.probe", subject, "cache-probe");
      if (auto cached = cache_.get<T>(cache_key)) {
        m.cache_hits.get().inc();
        return *cached;
      }
    }
    m.cache_misses.get().inc();
    std::optional<Bytes> data = connector_->get(key);
    if (!data) return std::nullopt;
    m.get_bytes.get().inc(data->size());
    std::optional<T> value;
    {
      obs::SpanScope serde("store.deserialize", subject, "serde");
      value.emplace(deserialize_value<T>(*data));
    }
    cache_fill(cache_key, *value);
    return value;
  }

  // -- asynchronous operations -------------------------------------------
  //
  // Futures-based twins of get, built on the connector's async protocol.
  // Fetches are single-flight per (key, type): concurrent get_async /
  // resolve_batch callers for the same object share one connector fetch and
  // one deserialization — the deserialized-object cache is filled exactly
  // once, and every waiter merges the fetch's virtual completion time.
  // Lifetime: the store must outlive any future it returned.

  /// Begins retrieving and deserializing the object. Cache hits complete
  /// inline; misses ride Connector::get_async and deserialize on the
  /// completing thread.
  template <typename T>
  ps::core::Future<std::optional<T>> get_async(const Key& key) {
    check_open();
    const detail::StoreInstruments& m = detail::store_instruments();
    m.gets.get().inc();
    const std::string cache_key = key.canonical();
    if (auto cached = cache_.get<T>(cache_key)) {
      m.cache_hits.get().inc();
      return make_ready_future(std::optional<T>(*cached));
    }
    const InFlightKey in_flight_key{cache_key, std::type_index(typeid(T))};
    Promise<std::optional<T>> promise;
    {
      std::lock_guard lock(inflight_mu_);
      const auto it = inflight_.find(in_flight_key);
      if (it != inflight_.end()) {
        m.cache_misses.get().inc();
        return std::any_cast<ps::core::Future<std::optional<T>>>(it->second);
      }
      // A fetch may have finished between the unlocked cache probe above and
      // taking this lock. Fetchers fill the cache *before* erasing their
      // in-flight entry (which requires this lock), so re-probing here keeps
      // the exactly-one-deserialization-per-key guarantee airtight.
      if (auto cached = cache_.get<T>(cache_key)) {
        m.cache_hits.get().inc();
        return make_ready_future(std::optional<T>(*cached));
      }
      m.cache_misses.get().inc();
      inflight_.emplace(in_flight_key, std::any(promise.future()));
    }
    ps::core::Future<std::optional<Bytes>> raw = connector_->get_async(key);
    const auto complete = [this, cache_key, in_flight_key, promise, raw] {
      try {
        const std::optional<Bytes>& data = raw.wait();  // ready: no blocking
        if (!data) {
          inflight_erase(in_flight_key);
          promise.set_value(std::nullopt);
          return;
        }
        detail::store_instruments().get_bytes.get().inc(data->size());
        std::optional<T> value;
        {
          obs::SpanScope serde("store.deserialize", cache_key, "serde");
          value.emplace(deserialize_value<T>(*data));
        }
        cache_fill(cache_key, *value);
        inflight_erase(in_flight_key);
        promise.set_value(std::move(value));
      } catch (...) {
        inflight_erase(in_flight_key);
        promise.set_error(std::current_exception());
      }
    };
    if (raw.ready()) {
      // Completion-driven connectors (kv, endpoint) return an already-ready
      // future stamped at the request's pipelined completion vtime. Run the
      // continuation at that time — not the issuing clock — so the fetch's
      // cost lands in the derived future and the caller keeps overlapping.
      const sim::SimTime resume = sim::vnow();
      sim::vset(raw.done_vtime());
      complete();
      sim::vset(resume);
    } else {
      raw.on_ready(complete);
    }
    return promise.future();
  }

  /// Retrieves many objects in one pipelined connector round trip
  /// (Connector::get_batch), position-for-position. Batch-internal
  /// duplicates and fetches already in flight are deduplicated; each
  /// missing object yields nullopt.
  template <typename T>
  std::vector<std::optional<T>> resolve_batch(const std::vector<Key>& keys) {
    check_open();
    std::vector<std::optional<T>> out(keys.size());
    struct Miss {
      std::size_t index;
      Key key;
      std::string cache_key;
      Promise<std::optional<T>> promise;
    };
    std::vector<Miss> misses;
    std::vector<std::pair<std::size_t, ps::core::Future<std::optional<T>>>>
        joined;
    std::vector<std::pair<std::size_t, std::size_t>> aliases;  // i → miss pos
    std::unordered_map<std::string, std::size_t> first_miss;
    const detail::StoreInstruments& m = detail::store_instruments();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      m.gets.get().inc();
      const std::string cache_key = keys[i].canonical();
      if (auto cached = cache_.get<T>(cache_key)) {
        m.cache_hits.get().inc();
        out[i] = *cached;
        continue;
      }
      if (const auto dup = first_miss.find(cache_key);
          dup != first_miss.end()) {
        m.cache_misses.get().inc();
        aliases.emplace_back(i, dup->second);
        continue;
      }
      const InFlightKey in_flight_key{cache_key, std::type_index(typeid(T))};
      std::lock_guard lock(inflight_mu_);
      if (const auto it = inflight_.find(in_flight_key);
          it != inflight_.end()) {
        m.cache_misses.get().inc();
        joined.emplace_back(
            i, std::any_cast<ps::core::Future<std::optional<T>>>(it->second));
        continue;
      }
      // Same completed-between-probe-and-lock re-check as get_async.
      if (auto cached = cache_.get<T>(cache_key)) {
        m.cache_hits.get().inc();
        out[i] = *cached;
        continue;
      }
      m.cache_misses.get().inc();
      Miss miss{i, keys[i], cache_key, {}};
      inflight_.emplace(in_flight_key, std::any(miss.promise.future()));
      first_miss.emplace(cache_key, misses.size());
      misses.push_back(std::move(miss));
    }
    if (!misses.empty()) {
      std::vector<Key> miss_keys;
      miss_keys.reserve(misses.size());
      for (const Miss& miss : misses) miss_keys.push_back(miss.key);
      std::size_t done = 0;
      try {
        // One pipelined round trip, charged to the calling thread — this is
        // where batched resolve beats N sequential gets.
        const std::vector<std::optional<Bytes>> results =
            connector_->get_batch(miss_keys);
        for (; done < misses.size(); ++done) {
          Miss& miss = misses[done];
          const InFlightKey in_flight_key{miss.cache_key,
                                          std::type_index(typeid(T))};
          if (!results[done]) {
            inflight_erase(in_flight_key);
            miss.promise.set_value(std::nullopt);
            continue;
          }
          m.get_bytes.get().inc(results[done]->size());
          std::optional<T>& value = out[miss.index];
          {
            obs::SpanScope serde("store.deserialize", miss.cache_key,
                                 "serde");
            value.emplace(deserialize_value<T>(*results[done]));
          }
          cache_fill(miss.cache_key, *value);
          inflight_erase(in_flight_key);
          miss.promise.set_value(value);  // joined waiters get their copy
        }
      } catch (...) {
        // Fail every promise not yet fulfilled so joined waiters unblock.
        for (; done < misses.size(); ++done) {
          inflight_erase(InFlightKey{misses[done].cache_key,
                                     std::type_index(typeid(T))});
          misses[done].promise.set_error(std::current_exception());
        }
        throw;
      }
    }
    for (const auto& [i, miss_pos] : aliases) {
      out[i] = out[misses[miss_pos].index];
    }
    for (auto& [i, future] : joined) {
      out[i] = future.get();  // merges the fetching thread's vtime
    }
    return out;
  }

  /// Starts background fetches warming the deserialized-object cache for
  /// `keys` (skipping ones already cached). Advisory: completion is not
  /// awaited and the transfer's virtual cost is merged only by waiters
  /// that join the in-flight fetch before it finishes.
  template <typename T>
  void prefetch(const std::vector<Key>& keys) {
    check_open();
    for (const Key& key : keys) {
      if (cache_.contains(key.canonical())) continue;
      (void)get_async<T>(key);
    }
  }

  /// True when the object is cached locally or present in the channel.
  bool exists(const Key& key) {
    check_open();
    detail::store_instruments().exists.get().inc();
    return cache_.contains(key.canonical()) || connector_->exists(key);
  }

  /// Removes the object from the channel and the local cache.
  void evict(const Key& key) {
    check_open();
    detail::store_instruments().evicts.get().inc();
    cache_.erase(key.canonical());
    connector_->evict(key);
  }

  /// Removes many objects in one pipelined connector round trip
  /// (Connector::evict_batch) — the cleanup dual of resolve_batch. Stream
  /// payload eviction and swarm manifest cleanup use this so a whole batch
  /// costs one wire exchange on kv-backed channels.
  void evict_batch(const std::vector<Key>& keys) {
    check_open();
    detail::store_instruments().evicts.get().inc(keys.size());
    for (const Key& key : keys) cache_.erase(key.canonical());
    connector_->evict_batch(keys);
  }

  // -- proxies ------------------------------------------------------------

  /// Stores `value` and returns a lazy transparent proxy for it.
  /// With `evict` set, the object is removed from the channel when the
  /// proxy is first resolved (single-consumer intermediate values).
  template <typename T>
  Proxy<T> proxy(const T& value, bool evict = false) {
    return proxy_from_key<T>(put(value), evict);
  }

  /// proxy with routing constraints on where the object is stored.
  template <typename T>
  Proxy<T> proxy(const T& value, bool evict, const PutHints& hints) {
    return proxy_from_key<T>(put(value, hints), evict);
  }

  /// Proxies a batch via a single bulk transfer (GlobusConnector turns this
  /// into one transfer task — paper section 4.2.1).
  template <typename T>
  std::vector<Proxy<T>> proxy_batch(const std::vector<T>& values,
                                    bool evict = false) {
    const std::vector<Key> keys = put_batch(values);
    std::vector<Proxy<T>> proxies;
    proxies.reserve(keys.size());
    for (const Key& key : keys) {
      proxies.push_back(proxy_from_key<T>(key, evict));
    }
    return proxies;
  }

  /// Builds a proxy for an object already stored under `key`.
  template <typename T>
  Proxy<T> proxy_from_key(const Key& key, bool evict = false) {
    check_open();
    detail::store_instruments().proxies.get().inc();
    const std::string subject = obs::TraceRecorder::global().enabled()
                                    ? trace_subject(name_, key)
                                    : std::string{};
    obs::SpanScope span("store.proxy", subject);
    FactoryDescriptor descriptor{name_, key, connector_->config(), evict};
    descriptor.trace = span.context();
    return Proxy<T>(make_descriptor_factory<T>(std::move(descriptor)));
  }

  // -- data-flow proxies (paper section 6 future work: "readers of an
  //    object block until the object is written, as in Id") ----------------

  /// A handle to an object that has not been produced yet.
  template <typename T>
  struct Future {
    /// Where the producer must write the object (see fulfill()).
    Key key;
    /// A proxy consumers can hold now; resolving blocks (polling in
    /// virtual time) until the object is written or the poll budget runs
    /// out (then ProxyResolutionError).
    Proxy<T> proxy;
  };

  /// Creates a data-flow proxy. Requires a connector with addressed
  /// writes (put_at): Local, File, Redis, Endpoint.
  template <typename T>
  Future<T> make_future(double poll_interval_s = 0.01,
                        std::uint32_t max_polls = 1000) {
    check_open();
    Key key = connector_->reserve_key();
    const std::string subject = obs::TraceRecorder::global().enabled()
                                    ? trace_subject(name_, key)
                                    : std::string{};
    obs::SpanScope span("store.future", subject);
    FactoryDescriptor descriptor{name_, key, connector_->config(),
                                 /*evict=*/false, poll_interval_s, max_polls};
    descriptor.trace = span.context();
    return Future<T>{
        key, Proxy<T>(make_descriptor_factory<T>(std::move(descriptor)))};
  }

  /// Fulfils a data-flow proxy: writes `value` at the future's key.
  template <typename T>
  void fulfill(const Key& key, const T& value) {
    check_open();
    const Bytes data = serialize_value(value);
    count_put(data.size());
    if (!connector_->put_at(key, data)) {
      throw ConnectorError("Store '" + name_ +
                           "': connector does not support addressed writes");
    }
  }

  // -- custom serialization (paper: "custom (de)serialize functions can be
  //    registered with the Store if needed") --------------------------------

  template <typename T>
  void register_serializer(std::function<Bytes(const T&)> serializer,
                           std::function<T(BytesView)> deserializer) {
    std::lock_guard lock(serializers_mu_);
    serializers_[std::type_index(typeid(T))] =
        SerializerEntry{std::move(serializer), std::move(deserializer)};
    has_serializers_.store(true, std::memory_order_release);
  }

  // -- lifecycle ---------------------------------------------------------

  /// Closes the store and its connector. Subsequent operations throw.
  void close();
  bool closed() const { return closed_.load(); }

 private:
  struct SerializerEntry {
    std::any serializer;    // std::function<Bytes(const T&)>
    std::any deserializer;  // std::function<T(BytesView)>
  };

  void check_open() const {
    if (closed_.load()) {
      throw ConnectorError("Store '" + name_ + "' is closed");
    }
  }

  /// The custom codec registered for T, if any. Lock-free (one acquire
  /// load) while the store has no registered serializer at all.
  template <typename T>
  const SerializerEntry* find_serializer() const {
    if (!has_serializers_.load(std::memory_order_acquire)) return nullptr;
    std::lock_guard lock(serializers_mu_);
    const auto it = serializers_.find(std::type_index(typeid(T)));
    return it == serializers_.end() ? nullptr : &it->second;
  }

  template <typename T>
  Bytes serialize_value(const T& value) {
    if (const SerializerEntry* entry = find_serializer<T>()) {
      const auto& fn =
          std::any_cast<const std::function<Bytes(const T&)>&>(
              entry->serializer);
      return fn(value);
    }
    if constexpr (serde::Serializable<T>) {
      return serde::to_bytes(value);
    } else {
      throw SerializationError(
          "Store: type has no serde codec and no registered serializer");
    }
  }

  /// Copies a freshly deserialized value into the cache. A disabled cache
  /// (capacity 0) takes nothing, so cache-off reads return the deserialized
  /// value itself.
  template <typename T>
  void cache_fill(const std::string& cache_key, const T& value) {
    if (cache_.capacity() == 0) return;
    cache_.put<T>(cache_key, std::make_shared<const T>(value));
  }

  template <typename T>
  T deserialize_value(BytesView data) {
    if (const SerializerEntry* entry = find_serializer<T>()) {
      const auto& fn = std::any_cast<const std::function<T(BytesView)>&>(
          entry->deserializer);
      return fn(data);
    }
    if constexpr (serde::Serializable<T>) {
      return serde::from_bytes<T>(data);
    } else {
      throw SerializationError(
          "Store: type has no serde codec and no registered serializer");
    }
  }

  /// Single-flight table for async fetches: (canonical key, value type) →
  /// std::any holding the ps::core::Future<std::optional<T>> every
  /// concurrent getter of that object shares.
  using InFlightKey = std::pair<std::string, std::type_index>;

  void inflight_erase(const InFlightKey& key) {
    std::lock_guard lock(inflight_mu_);
    inflight_.erase(key);
  }

  static void count_put(std::size_t bytes) {
    const detail::StoreInstruments& m = detail::store_instruments();
    m.puts.get().inc();
    m.put_bytes.get().inc(bytes);
  }

  std::string name_;
  std::shared_ptr<Connector> connector_;
  Options options_;
  ObjectCache cache_;
  mutable std::mutex serializers_mu_;
  std::unordered_map<std::type_index, SerializerEntry> serializers_;
  /// Set (never cleared) by the first register_serializer.
  std::atomic<bool> has_serializers_{false};
  mutable std::mutex inflight_mu_;
  std::map<InFlightKey, std::any> inflight_;
  std::atomic<bool> closed_{false};
};

// ---------------------------------------------------------------------------
// Per-process store registry (paper section 3.5: "Store instances are
// registered globally within a process by name").
// ---------------------------------------------------------------------------

/// Registers `store` in the current process under its name.
/// Throws NotRegisteredError if a different store already holds the name
/// (unless `overwrite`).
void register_store(std::shared_ptr<Store> store, bool overwrite = false);

/// Looks up a store by name in the current process; nullptr if absent.
std::shared_ptr<Store> get_store(const std::string& name);

/// Removes a store binding from the current process. No-op if absent.
void unregister_store(const std::string& name);

/// Resolution path used by factories: returns the process-registered store
/// named in the descriptor, or re-creates (and registers) it from the
/// descriptor's connector config.
std::shared_ptr<Store> get_or_register_store(
    const FactoryDescriptor& descriptor);

// ---------------------------------------------------------------------------
// Descriptor-backed factory construction.
// ---------------------------------------------------------------------------

/// Hook implemented in refcount.hpp's registry: decrements the shared
/// count for (store, key) and returns the remaining references.
std::uint32_t refcount_decrement(const std::string& store_name,
                                 const std::string& canonical_key);

namespace detail {

/// Resolves a store-backed proxy's target from its descriptor: finds (or
/// re-creates) the store in the calling process, gets the object, and
/// applies the descriptor's evict / data-flow / ref-count semantics.
template <typename T>
T resolve_descriptor(const FactoryDescriptor& descriptor) {
  const StoreInstruments& m = store_instruments();
  m.resolves.get().inc();
  obs::Timer timer(&m.resolve_vtime.get(), &m.resolve_wall.get());
  const std::string subject =
      obs::TraceRecorder::global().enabled()
          ? trace_subject(descriptor.store_name, descriptor.key)
          : std::string{};
  // The descriptor carries the creating hop's context: adopt it so the
  // resolve span parents to the proxy-creation span even when this code
  // runs in a different simulated process/site.
  obs::ContextScope adopt(descriptor.trace);
  obs::SpanScope span("proxy.resolve", subject);
  std::shared_ptr<Store> store = get_or_register_store(descriptor);
  std::optional<T> value = store->get<T>(descriptor.key);
  // Data-flow proxies poll until the producer writes the object.
  for (std::uint32_t poll = 0; !value && poll < descriptor.max_polls;
       ++poll) {
    sim::vadvance(descriptor.poll_interval_s);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    value = store->get<T>(descriptor.key);
  }
  if (!value) {
    m.resolve_failures.get().inc();
    throw ProxyResolutionError("proxy target '" + descriptor.key.canonical() +
                               "' not found in store '" +
                               descriptor.store_name + "'");
  }
  if (descriptor.evict) store->evict(descriptor.key);
  if (descriptor.ref_counted &&
      refcount_decrement(descriptor.store_name,
                         descriptor.key.canonical()) == 0) {
    store->evict(descriptor.key);
  }
  return std::move(*value);
}

}  // namespace detail

/// The serializable factory for a store-backed proxy.
template <typename T>
Factory<T> make_descriptor_factory(FactoryDescriptor descriptor) {
  return Factory<T>(std::move(descriptor), &detail::resolve_descriptor<T>);
}

}  // namespace ps::core

// ---------------------------------------------------------------------------
// Proxy serialization: factory descriptor only, never the target
// (paper: "Proxy modifies its own pickling behavior to include only the
// factory, not the target").
// ---------------------------------------------------------------------------

namespace ps::serde {

template <typename T>
struct Codec<ps::core::Proxy<T>> {
  static void encode(Writer& w, const ps::core::Proxy<T>& proxy) {
    const auto& descriptor = proxy.factory().descriptor();
    if (!descriptor) {
      throw SerializationError(
          "Proxy: only store-backed proxies are serializable");
    }
    serde::encode(w, *descriptor);
  }

  static ps::core::Proxy<T> decode(Reader& r) {
    auto descriptor = serde::decode<ps::core::FactoryDescriptor>(r);
    return ps::core::Proxy<T>(
        ps::core::make_descriptor_factory<T>(std::move(descriptor)));
  }
};

}  // namespace ps::serde
