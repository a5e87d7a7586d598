#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "connectors/access.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/cache.hpp"
#include "core/instrumented.hpp"
#include "core/key.hpp"
#include "core/multi.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"
#include "kv/server.hpp"
#include "obs/metrics.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"
#include "swarm/chaos.hpp"

namespace ps::core {
namespace {

using connectors::LocalConnector;

/// Fixture giving each test an isolated world with two processes
/// ("producer" on one host, "consumer" on another in a remote site).
class CoreTest : public ::testing::Test {
 protected:
  CoreTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("site-a", net::hpc_interconnect(10e-6, 10e9));
    world_->fabric().add_site("site-b", net::hpc_interconnect(10e-6, 10e9));
    world_->fabric().connect_sites("site-a", "site-b",
                                   net::wan_tcp(20e-3, 1e9));
    world_->fabric().add_host("host-a", "site-a");
    world_->fabric().add_host("host-b", "site-b");
    producer_ = &world_->spawn("producer", "host-a");
    consumer_ = &world_->spawn("consumer", "host-b");
  }

  std::shared_ptr<Store> make_store(const std::string& name) {
    proc::ProcessScope scope(*producer_);
    auto store = std::make_shared<Store>(name,
                                         std::make_shared<LocalConnector>());
    register_store(store);
    return store;
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* producer_ = nullptr;
  proc::Process* consumer_ = nullptr;
};

// ------------------------------------------------------------------ key ----

TEST(Key, CanonicalIncludesMeta) {
  Key a{.object_id = "x", .meta = {{"k", "v"}}};
  Key b{.object_id = "x", .meta = {}};
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_EQ(a.canonical(), "x|k=v");
}

TEST(Key, FieldThrowsOnMissing) {
  Key k{.object_id = "x", .meta = {{"a", "1"}}};
  EXPECT_EQ(k.field("a"), "1");
  EXPECT_THROW(k.field("b"), ConnectorError);
}

TEST(Key, SerdeRoundTrip) {
  Key k{.object_id = "obj", .meta = {{"task", "t1"}, {"ep", "e2"}}};
  EXPECT_EQ(serde::from_bytes<Key>(serde::to_bytes(k)), k);
}

// ---------------------------------------------------------------- cache ----

TEST(Cache, PutGetTyped) {
  ObjectCache cache(4);
  cache.put<int>("a", std::make_shared<const int>(42));
  auto hit = cache.get<int>("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
}

TEST(Cache, TypeMismatchMisses) {
  ObjectCache cache(4);
  cache.put<int>("a", std::make_shared<const int>(42));
  EXPECT_EQ(cache.get<std::string>("a"), nullptr);
}

TEST(Cache, TypeMismatchIsAMissAndKeepsLruOrder) {
  ObjectCache cache(2);
  cache.put<int>("A", std::make_shared<const int>(1));
  cache.put<int>("B", std::make_shared<const int>(2));
  EXPECT_EQ(cache.get<std::string>("A"), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.put<int>("C", std::make_shared<const int>(3));
  // The mistyped probe did not refresh A, so A made room for C.
  EXPECT_FALSE(cache.contains("A"));
  EXPECT_TRUE(cache.contains("B"));
  EXPECT_TRUE(cache.contains("C"));
}

TEST(Cache, ReplaceRefreshesWithoutEvicting) {
  ObjectCache cache(2);
  cache.put<int>("a", std::make_shared<const int>(1));
  cache.put<int>("b", std::make_shared<const int>(2));
  cache.put<int>("a", std::make_shared<const int>(3));  // a is now most recent
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.put<int>("c", std::make_shared<const int>(4));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains("b"));
  ASSERT_NE(cache.get<int>("a"), nullptr);
  EXPECT_EQ(*cache.get<int>("a"), 3);
  EXPECT_EQ(*cache.get<int>("c"), 4);
}

TEST(Cache, LruEvictsOldest) {
  ObjectCache cache(2);
  cache.put<int>("a", std::make_shared<const int>(1));
  cache.put<int>("b", std::make_shared<const int>(2));
  cache.put<int>("c", std::make_shared<const int>(3));
  EXPECT_EQ(cache.get<int>("a"), nullptr);
  EXPECT_NE(cache.get<int>("b"), nullptr);
  EXPECT_NE(cache.get<int>("c"), nullptr);
}

TEST(Cache, AccessRefreshesLru) {
  ObjectCache cache(2);
  cache.put<int>("a", std::make_shared<const int>(1));
  cache.put<int>("b", std::make_shared<const int>(2));
  cache.get<int>("a");  // refresh a
  cache.put<int>("c", std::make_shared<const int>(3));
  EXPECT_NE(cache.get<int>("a"), nullptr);
  EXPECT_EQ(cache.get<int>("b"), nullptr);
}

TEST(Cache, ZeroCapacityDisables) {
  ObjectCache cache(0);
  cache.put<int>("a", std::make_shared<const int>(1));
  EXPECT_EQ(cache.get<int>("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, HitMissCounters) {
  ObjectCache cache(4);
  cache.put<int>("a", std::make_shared<const int>(1));
  cache.get<int>("a");
  cache.get<int>("zzz");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, EraseAndClear) {
  ObjectCache cache(4);
  cache.put<int>("a", std::make_shared<const int>(1));
  cache.erase("a");
  EXPECT_FALSE(cache.contains("a"));
  cache.put<int>("b", std::make_shared<const int>(2));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------- proxy ----

TEST(Proxy, LazyResolution) {
  int calls = 0;
  Proxy<std::string> p(Factory<std::string>([&calls] {
    ++calls;
    return std::string("hello");
  }));
  EXPECT_FALSE(p.resolved());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(*p, "hello");
  EXPECT_TRUE(p.resolved());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(*p, "hello");  // cached
  EXPECT_EQ(calls, 1);
}

TEST(Proxy, TransparencyViaImplicitConversion) {
  Proxy<std::string> p(
      Factory<std::string>([] { return std::string("world"); }));
  // A function expecting const std::string& accepts the proxy unchanged.
  const auto takes_string = [](const std::string& s) { return s.size(); };
  EXPECT_EQ(takes_string(p), 5u);
}

TEST(Proxy, ArrowForwardsToTarget) {
  Proxy<std::vector<int>> p(
      Factory<std::vector<int>>([] { return std::vector<int>{1, 2, 3}; }));
  EXPECT_EQ(p->size(), 3u);
  EXPECT_EQ(p->at(1), 2);
}

TEST(Proxy, CopySharesResolutionState) {
  int calls = 0;
  Proxy<int> p(Factory<int>([&calls] {
    ++calls;
    return 7;
  }));
  Proxy<int> q = p;
  EXPECT_EQ(*q, 7);
  EXPECT_TRUE(p.resolved());  // resolving the copy resolved the original
  EXPECT_EQ(*p, 7);
  EXPECT_EQ(calls, 1);
}

TEST(Proxy, MutableTargetAffectsLocalCopyOnly) {
  Proxy<std::vector<int>> p(
      Factory<std::vector<int>>([] { return std::vector<int>{1}; }));
  p.mutable_target().push_back(2);
  EXPECT_EQ(p->size(), 2u);
}

TEST(Proxy, FactoryErrorPropagatesAndRetries) {
  int calls = 0;
  Proxy<int> p(Factory<int>([&calls]() -> int {
    if (++calls == 1) throw ProxyResolutionError("transient");
    return 9;
  }));
  EXPECT_THROW(p.resolve(), ProxyResolutionError);
  EXPECT_FALSE(p.resolved());
  EXPECT_EQ(*p, 9);  // second attempt succeeds
}

TEST(Proxy, EmptyFactoryRejectedAtConstruction) {
  EXPECT_THROW(Proxy<int>(Factory<int>()), ProxyResolutionError);
}

TEST(Proxy, AsyncResolveProducesSameValue) {
  Proxy<std::string> p(
      Factory<std::string>([] { return std::string("async"); }));
  p.resolve_async();
  EXPECT_EQ(*p, "async");
}

TEST(Proxy, AsyncResolveIsIdempotent) {
  std::atomic<int> calls{0};
  Proxy<int> p(Factory<int>([&calls] {
    ++calls;
    return 1;
  }));
  p.resolve_async();
  p.resolve_async();
  EXPECT_EQ(*p, 1);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Proxy, AsyncOverlapsVirtualTime) {
  // A factory costing 1.0 virtual seconds overlapped with 1.0s of compute
  // should finish in ~1.0s, not 2.0s.
  sim::VtimeGuard guard;
  Proxy<int> p(Factory<int>([] {
    sim::vadvance(1.0);
    return 5;
  }));
  sim::VtimeScope scope;
  p.resolve_async();
  sim::vadvance(1.0);  // simulated computation
  EXPECT_EQ(*p, 5);
  EXPECT_NEAR(scope.elapsed(), 1.0, 1e-6);
}

TEST(Proxy, SequentialResolveCostsAdd) {
  sim::VtimeGuard guard;
  Proxy<int> p(Factory<int>([] {
    sim::vadvance(1.0);
    return 5;
  }));
  sim::VtimeScope scope;
  sim::vadvance(1.0);
  EXPECT_EQ(*p, 5);  // resolve after the compute, no overlap
  EXPECT_NEAR(scope.elapsed(), 2.0, 1e-6);
}

TEST(Proxy, ConcurrentResolversSeeOneValue) {
  Proxy<int> p(Factory<int>([] { return 42; }));
  std::vector<std::thread> threads;
  std::atomic<int> sum{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] { sum += *p; });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(), 8 * 42);
}

// ---------------------------------------------------------------- store ----

TEST_F(CoreTest, StorePutGetRoundTrip) {
  auto store = make_store("s1");
  proc::ProcessScope scope(*producer_);
  const Key key = store->put(std::string("value"));
  EXPECT_EQ(store->get<std::string>(key), "value");
  EXPECT_TRUE(store->exists(key));
}

TEST_F(CoreTest, StoreGetMissingReturnsNullopt) {
  auto store = make_store("s2");
  proc::ProcessScope scope(*producer_);
  EXPECT_EQ(store->get<int>(Key{.object_id = "ghost", .meta = {}}),
            std::nullopt);
}

TEST_F(CoreTest, StoreEvictRemoves) {
  auto store = make_store("s3");
  proc::ProcessScope scope(*producer_);
  Store::Options no_cache;
  no_cache.cache_size = 0;
  auto raw = std::make_shared<Store>("raw", std::make_shared<LocalConnector>(),
                                     no_cache);
  const Key key = raw->put(123);
  raw->evict(key);
  EXPECT_FALSE(raw->exists(key));
  EXPECT_EQ(raw->get<int>(key), std::nullopt);
}

TEST_F(CoreTest, CacheOffStoreReadsReturnPutBytes) {
  proc::ProcessScope scope(*producer_);
  auto connector = std::make_shared<LocalConnector>();
  auto store = std::make_shared<Store>("cache-off", connector,
                                       Store::Options{.cache_size = 0});
  const Bytes payload = pattern_bytes(256 * 1024, 3);
  const Bytes small = pattern_bytes(1000, 4);
  const Key key = store->put(payload);
  const Key other = store->put(small);

  EXPECT_EQ(store->get<Bytes>(key), payload);
  // The repeated key is a batch-internal duplicate: one fetch, two answers.
  const std::vector<std::optional<Bytes>> batch =
      store->resolve_batch<Bytes>({key, other, key});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], payload);
  EXPECT_EQ(batch[1], small);
  EXPECT_EQ(batch[2], payload);
  EXPECT_EQ(store->cache().size(), 0u);

  // Nothing was cached, so an eviction behind the store's back shows at once.
  connector->evict(key);
  EXPECT_EQ(store->get<Bytes>(key), std::nullopt);
  EXPECT_EQ(store->get<Bytes>(other), small);
  EXPECT_EQ(store->cache().size(), 0u);
}

TEST_F(CoreTest, StoreCachesDeserializedObjects) {
  auto store = make_store("s4");
  proc::ProcessScope scope(*producer_);
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("store.cache.hits");
  const std::uint64_t hits_before = hits.value();
  const Key key = store->put(std::string("cached"));
  store->get<std::string>(key);
  store->get<std::string>(key);
  EXPECT_EQ(hits.value() - hits_before, 1u);
  // Cached object survives connector eviction (local materialization).
  store->connector().evict(key);
  EXPECT_EQ(store->get<std::string>(key), "cached");
}

TEST_F(CoreTest, StoreCustomSerializer) {
  auto store = make_store("s5");
  proc::ProcessScope scope(*producer_);
  struct Custom {
    int v = 0;
  };
  store->register_serializer<Custom>(
      [](const Custom& c) { return serde::to_bytes(c.v); },
      [](BytesView b) { return Custom{serde::from_bytes<int>(b)}; });
  const Key key = store->put(Custom{99});
  EXPECT_EQ(store->get<Custom>(key)->v, 99);
}

TEST_F(CoreTest, StoreCloseRejectsFurtherOps) {
  auto store = make_store("s6");
  proc::ProcessScope scope(*producer_);
  store->close();
  EXPECT_TRUE(store->closed());
  EXPECT_THROW(store->put(1), ConnectorError);
  store->close();  // idempotent
}

TEST_F(CoreTest, StoreMetricsTrackBytes) {
  auto store = make_store("s7");
  proc::ProcessScope scope(*producer_);
  const auto before = obs::MetricsRegistry::global().counters();
  const auto delta = [&before](const std::string& name) {
    const auto now = obs::MetricsRegistry::global().counters();
    const auto it = before.find(name);
    return now.at(name) - (it == before.end() ? 0 : it->second);
  };
  const Key key = store->put(pattern_bytes(1000));
  store->get<Bytes>(key);
  EXPECT_EQ(delta("store.puts"), 1u);
  EXPECT_EQ(delta("store.gets"), 1u);
  EXPECT_GE(delta("store.put.bytes"), 1000u);
  EXPECT_GE(delta("store.get.bytes"), 1000u);
}

TEST_F(CoreTest, NullConnectorThrows) {
  EXPECT_THROW(Store("bad", nullptr), ConnectorError);
}

// ------------------------------------------------------------- registry ----

TEST_F(CoreTest, RegisterAndGetStore) {
  auto store = make_store("reg1");
  proc::ProcessScope scope(*producer_);
  EXPECT_EQ(get_store("reg1"), store);
  EXPECT_EQ(get_store("missing"), nullptr);
}

TEST_F(CoreTest, DuplicateRegistrationThrowsUnlessOverwrite) {
  auto store = make_store("reg2");
  proc::ProcessScope scope(*producer_);
  auto other =
      std::make_shared<Store>("reg2", std::make_shared<LocalConnector>());
  EXPECT_THROW(register_store(other), NotRegisteredError);
  register_store(store);  // same instance: fine
  register_store(other, /*overwrite=*/true);
  EXPECT_EQ(get_store("reg2"), other);
}

TEST_F(CoreTest, UnregisterStore) {
  auto store = make_store("reg3");
  proc::ProcessScope scope(*producer_);
  unregister_store("reg3");
  EXPECT_EQ(get_store("reg3"), nullptr);
  unregister_store("reg3");  // no-op
}

TEST_F(CoreTest, RegistryIsPerProcess) {
  auto store = make_store("reg4");
  proc::ProcessScope scope(*consumer_);
  EXPECT_EQ(get_store("reg4"), nullptr);
}

// ------------------------------------------------- proxies from a store ----

TEST_F(CoreTest, StoreProxyResolvesInSameProcess) {
  auto store = make_store("p1");
  proc::ProcessScope scope(*producer_);
  Proxy<std::string> p = store->proxy(std::string("data"));
  EXPECT_FALSE(p.resolved());
  EXPECT_EQ(*p, "data");
}

TEST_F(CoreTest, ProxySerializesToFactoryOnlyAndStaysSmall) {
  auto store = make_store("p2");
  proc::ProcessScope scope(*producer_);
  // A 10 MB object...
  Proxy<Bytes> p = store->proxy(pattern_bytes(10'000'000));
  const Bytes wire = serde::to_bytes(p);
  // ...travels as a few hundred bytes of factory descriptor.
  EXPECT_LT(wire.size(), 1000u);
}

TEST_F(CoreTest, ProxyResolvesInRemoteProcessAndRegistersStore) {
  auto store = make_store("p3");
  Bytes wire;
  {
    proc::ProcessScope scope(*producer_);
    Proxy<std::string> p = store->proxy(std::string("travels"));
    wire = serde::to_bytes(p);
  }
  {
    proc::ProcessScope scope(*consumer_);
    EXPECT_EQ(get_store("p3"), nullptr);  // not yet registered here
    auto p = serde::from_bytes<Proxy<std::string>>(wire);
    EXPECT_EQ(*p, "travels");
    // Resolution re-created and registered the store (paper section 3.5).
    ASSERT_NE(get_store("p3"), nullptr);
    EXPECT_EQ(get_store("p3")->name(), "p3");
  }
}

TEST_F(CoreTest, RemoteProcessReusesRegisteredStore) {
  auto store = make_store("p4");
  Bytes wire1, wire2;
  {
    proc::ProcessScope scope(*producer_);
    wire1 = serde::to_bytes(store->proxy(std::string("a")));
    wire2 = serde::to_bytes(store->proxy(std::string("b")));
  }
  {
    proc::ProcessScope scope(*consumer_);
    auto p1 = serde::from_bytes<Proxy<std::string>>(wire1);
    EXPECT_EQ(*p1, "a");
    std::shared_ptr<Store> first = get_store("p4");
    auto p2 = serde::from_bytes<Proxy<std::string>>(wire2);
    EXPECT_EQ(*p2, "b");
    EXPECT_EQ(get_store("p4"), first);  // same instance reused
  }
}

TEST_F(CoreTest, EvictFlagEvictsOnFirstResolve) {
  auto store = make_store("p5");
  proc::ProcessScope scope(*producer_);
  Proxy<std::string> p = store->proxy(std::string("once"), /*evict=*/true);
  const Key key = p.factory().descriptor()->key;
  EXPECT_TRUE(store->connector().exists(key));
  EXPECT_EQ(*p, "once");
  EXPECT_FALSE(store->connector().exists(key));
  EXPECT_EQ(*p, "once");  // local copy still cached in the proxy
}

TEST_F(CoreTest, NonEvictProxyLeavesObject) {
  auto store = make_store("p6");
  proc::ProcessScope scope(*producer_);
  Proxy<std::string> p = store->proxy(std::string("many"));
  p.resolve();
  EXPECT_TRUE(store->connector().exists(p.factory().descriptor()->key));
}

TEST_F(CoreTest, ProxyOfMissingObjectThrowsResolutionError) {
  auto store = make_store("p7");
  proc::ProcessScope scope(*producer_);
  Proxy<int> p =
      store->proxy_from_key<int>(Key{.object_id = "ghost", .meta = {}});
  EXPECT_THROW(p.resolve(), ProxyResolutionError);
}

TEST_F(CoreTest, ProxyBatchCreatesResolvableProxies) {
  auto store = make_store("p8");
  proc::ProcessScope scope(*producer_);
  std::vector<std::string> values{"x", "y", "z"};
  auto proxies = store->proxy_batch(values);
  ASSERT_EQ(proxies.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(*proxies[i], values[i]);
}

TEST_F(CoreTest, AdHocProxyIsNotSerializable) {
  Proxy<int> p(Factory<int>([] { return 1; }));
  EXPECT_THROW(serde::to_bytes(p), SerializationError);
}

TEST_F(CoreTest, NestedProxiesResolveLazily) {
  // A proxied struct containing another proxy: resolving the outer proxy
  // does not resolve the inner one (partial resolution of large objects).
  auto store = make_store("p9");
  proc::ProcessScope scope(*producer_);
  struct Wrapper {
    Proxy<Bytes> inner;
    explicit Wrapper(Proxy<Bytes> i) : inner(std::move(i)) {}
  };
  Proxy<Bytes> inner = store->proxy(pattern_bytes(1000, 1));
  Bytes inner_wire = serde::to_bytes(inner);
  auto restored = serde::from_bytes<Proxy<Bytes>>(inner_wire);
  EXPECT_FALSE(restored.resolved());
  EXPECT_TRUE(check_pattern(*restored, 1));
}

// ---------------------------------------------------------------- multi ----

class MultiTest : public CoreTest {
 protected:
  std::shared_ptr<MultiConnector> make_multi() {
    proc::ProcessScope scope(*producer_);
    auto small = std::make_shared<LocalConnector>();
    auto large = std::make_shared<LocalConnector>();
    small_ = small.get();
    large_ = large.get();
    Policy small_policy;
    small_policy.max_size = 1000;
    small_policy.tags = {"site-a"};
    small_policy.priority = 1;
    Policy large_policy;
    large_policy.min_size = 0;
    large_policy.tags = {"site-a", "site-b"};
    large_policy.priority = 0;
    return std::make_shared<MultiConnector>(std::vector<MultiConnector::Entry>{
        {"small", small, small_policy}, {"large", large, large_policy}});
  }

  LocalConnector* small_ = nullptr;
  LocalConnector* large_ = nullptr;
};

TEST_F(MultiTest, RoutesBySizePolicy) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  multi->put(pattern_bytes(100));
  EXPECT_EQ(small_->count(), 1u);
  EXPECT_EQ(large_->count(), 0u);
  multi->put(pattern_bytes(10000));
  EXPECT_EQ(large_->count(), 1u);
}

TEST_F(MultiTest, PriorityBreaksTies) {
  // 100-byte objects match both policies; "small" has higher priority.
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  const auto& chosen = multi->select(100, {});
  EXPECT_EQ(chosen.name, "small");
}

TEST_F(MultiTest, HintsRestrictToTaggedConnectors) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  PutHints hints;
  hints.required_tags = {"site-b"};
  // Small object would prefer "small", but it is not tagged for site-b.
  const Key key = multi->put_hinted(pattern_bytes(100), hints);
  EXPECT_EQ(key.field("multi_connector"), "large");
}

TEST_F(MultiTest, NoMatchThrows) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  PutHints hints;
  hints.required_tags = {"mars"};
  EXPECT_THROW(multi->put_hinted(pattern_bytes(10), hints),
               NoPolicyMatchError);
}

TEST_F(MultiTest, GetExistsEvictRouteToOwningChild) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  const Bytes data = pattern_bytes(100);
  const Key key = multi->put(data);
  EXPECT_EQ(multi->get(key), data);
  EXPECT_TRUE(multi->exists(key));
  multi->evict(key);
  EXPECT_FALSE(multi->exists(key));
  EXPECT_EQ(small_->count(), 0u);
}

TEST_F(MultiTest, UnknownChildInKeyThrows) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  Key forged{.object_id = "x", .meta = {{"multi_connector", "nope"}}};
  EXPECT_THROW(multi->get(forged), ConnectorError);
}

TEST_F(MultiTest, ConfigRoundTripsThroughRegistry) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  const Bytes data = pattern_bytes(100);
  const Key key = multi->put(data);
  auto rebuilt = ConnectorRegistry::instance().reconstruct(multi->config());
  EXPECT_EQ(rebuilt->type(), "multi");
  EXPECT_EQ(rebuilt->get(key), data);
}

TEST_F(MultiTest, ProxyThroughMultiStoreAcrossProcesses) {
  auto multi = make_multi();
  Bytes wire;
  {
    proc::ProcessScope scope(*producer_);
    auto store = std::make_shared<Store>("multi-store", multi);
    register_store(store);
    wire = serde::to_bytes(store->proxy(pattern_bytes(100, 3)));
  }
  {
    proc::ProcessScope scope(*consumer_);
    auto p = serde::from_bytes<Proxy<Bytes>>(wire);
    EXPECT_TRUE(check_pattern(*p, 3));
  }
}

TEST_F(MultiTest, EmptyEntriesRejected) {
  EXPECT_THROW(MultiConnector({}), ConnectorError);
}

TEST_F(MultiTest, DuplicateNamesRejected) {
  proc::ProcessScope scope(*producer_);
  auto c1 = std::make_shared<LocalConnector>();
  auto c2 = std::make_shared<LocalConnector>();
  EXPECT_THROW(
      MultiConnector(std::vector<MultiConnector::Entry>{{"x", c1, {}},
                                                        {"x", c2, {}}}),
      ConnectorError);
}

TEST(Policy, MatchingRules) {
  Policy p;
  p.min_size = 10;
  p.max_size = 100;
  p.tags = {"a", "b"};
  EXPECT_TRUE(p.matches(10, {}));
  EXPECT_TRUE(p.matches(100, {}));
  EXPECT_FALSE(p.matches(9, {}));
  EXPECT_FALSE(p.matches(101, {}));
  EXPECT_TRUE(p.matches(50, PutHints{.required_tags = {"a"}}));
  EXPECT_TRUE(p.matches(50, PutHints{.required_tags = {"a", "b"}}));
  EXPECT_FALSE(p.matches(50, PutHints{.required_tags = {"c"}}));
}

// Counts bulk vs one-by-one writes hitting a child connector, so tests can
// prove batches are forwarded as batches.
class BatchCountingConnector : public Connector {
 public:
  explicit BatchCountingConnector(std::string type_name)
      : type_(std::move(type_name)),
        inner_(std::make_shared<LocalConnector>()) {}

  std::string type() const override { return type_; }
  ConnectorConfig config() const override { return inner_->config(); }
  ConnectorTraits traits() const override { return inner_->traits(); }

  Key put(BytesView data) override {
    ++puts;
    return inner_->put(data);
  }
  std::vector<Key> put_batch(const std::vector<Bytes>& items) override {
    ++batch_calls;
    batch_items += items.size();
    return inner_->put_batch(items);
  }
  std::optional<Bytes> get(const Key& key) override {
    ++gets;
    return inner_->get(key);
  }
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<Key>& keys) override {
    ++get_batch_calls;
    get_batch_items += keys.size();
    return inner_->get_batch(keys);
  }
  bool exists(const Key& key) override { return inner_->exists(key); }
  std::vector<bool> exists_batch(const std::vector<Key>& keys) override {
    ++exists_batch_calls;
    exists_batch_items += keys.size();
    return inner_->exists_batch(keys);
  }
  void evict(const Key& key) override { inner_->evict(key); }
  void evict_batch(const std::vector<Key>& keys) override {
    ++evict_batch_calls;
    evict_batch_items += keys.size();
    inner_->evict_batch(keys);
  }

  int puts = 0;
  int batch_calls = 0;
  std::size_t batch_items = 0;
  int gets = 0;
  int get_batch_calls = 0;
  std::size_t get_batch_items = 0;
  int exists_batch_calls = 0;
  std::size_t exists_batch_items = 0;
  int evict_batch_calls = 0;
  std::size_t evict_batch_items = 0;

 private:
  std::string type_;
  std::shared_ptr<LocalConnector> inner_;
};

/// Routes objects of up to 1000 bytes to `small` and the rest to `large`.
MultiConnector counting_multi(std::shared_ptr<BatchCountingConnector> small,
                              std::shared_ptr<BatchCountingConnector> large) {
  Policy small_policy;
  small_policy.max_size = 1000;
  small_policy.priority = 1;
  return MultiConnector(std::vector<MultiConnector::Entry>{
      {"small", std::move(small), small_policy},
      {"large", std::move(large), Policy{}}});
}

TEST_F(CoreTest, ResolveBatchFetchesOnlyDistinctMissesInOneGetBatch) {
  proc::ProcessScope scope(*producer_);
  auto counting = std::make_shared<BatchCountingConnector>("count-store");
  auto store = std::make_shared<Store>("batch-shape", counting);
  const Key cached = store->put(std::string("cached"));
  const Key repeated = store->put(std::string("repeated"));
  const Key single = store->put(std::string("single"));
  ASSERT_EQ(store->get<std::string>(cached), "cached");  // now in the cache
  const int gets_before = counting->gets;

  const std::vector<std::optional<std::string>> values =
      store->resolve_batch<std::string>(
          {repeated, cached, single, repeated});
  const std::vector<std::optional<std::string>> expected{
      "repeated", "cached", "single", "repeated"};
  EXPECT_EQ(values, expected);
  // One get_batch over the two distinct misses; the cached key and the
  // repeat never reach the connector, and no key falls back to get.
  EXPECT_EQ(counting->get_batch_calls, 1);
  EXPECT_EQ(counting->get_batch_items, 2u);
  EXPECT_EQ(counting->gets, gets_before);
}

TEST_F(MultiTest, PutBatchPolicyRoutesPerItem) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  const std::vector<Bytes> items = {
      pattern_bytes(100, 0), pattern_bytes(5000, 1), pattern_bytes(200, 2),
      pattern_bytes(20000, 3), pattern_bytes(999, 4)};
  const std::vector<Key> keys = multi->put_batch(items);
  ASSERT_EQ(keys.size(), items.size());
  // Each item routed by its own size, results in submission order.
  EXPECT_EQ(keys[0].field("multi_connector"), "small");
  EXPECT_EQ(keys[1].field("multi_connector"), "large");
  EXPECT_EQ(keys[2].field("multi_connector"), "small");
  EXPECT_EQ(keys[3].field("multi_connector"), "large");
  EXPECT_EQ(keys[4].field("multi_connector"), "small");
  EXPECT_EQ(small_->count(), 3u);
  EXPECT_EQ(large_->count(), 2u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(multi->get(keys[i]), items[i]) << "item " << i;
  }
}

TEST_F(MultiTest, PutBatchForwardsGroupsAsBatches) {
  // Children must receive one put_batch per group — never the base class's
  // one-by-one fallback.
  proc::ProcessScope scope(*producer_);
  auto small = std::make_shared<BatchCountingConnector>("count-small");
  auto large = std::make_shared<BatchCountingConnector>("count-large");
  MultiConnector multi = counting_multi(small, large);
  const std::vector<Bytes> items = {
      pattern_bytes(10, 0), pattern_bytes(4000, 1), pattern_bytes(20, 2),
      pattern_bytes(8000, 3)};
  multi.put_batch(items);
  EXPECT_EQ(small->batch_calls, 1);
  EXPECT_EQ(small->batch_items, 2u);
  EXPECT_EQ(large->batch_calls, 1);
  EXPECT_EQ(large->batch_items, 2u);
  EXPECT_EQ(small->puts, 0);
  EXPECT_EQ(large->puts, 0);
}

TEST_F(MultiTest, GetBatchRoutesPerKeyToOwningChildren) {
  auto multi = make_multi();
  proc::ProcessScope scope(*producer_);
  const std::vector<Bytes> items = {
      pattern_bytes(100, 0), pattern_bytes(5000, 1), pattern_bytes(200, 2),
      pattern_bytes(20000, 3), pattern_bytes(999, 4)};
  const std::vector<Key> keys = multi->put_batch(items);
  // Batched read returns every value position-for-position even though the
  // keys interleave across the two children.
  const std::vector<std::optional<Bytes>> values = multi->get_batch(keys);
  ASSERT_EQ(values.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(values[i].has_value()) << "item " << i;
    EXPECT_EQ(*values[i], items[i]) << "item " << i;
  }
  // A missing key reads back as nullopt in place, not an error.
  std::vector<Key> with_missing = keys;
  multi->evict(with_missing[1]);
  const auto sparse = multi->get_batch(with_missing);
  EXPECT_FALSE(sparse[1].has_value());
  EXPECT_TRUE(sparse[0].has_value());
}

TEST_F(MultiTest, GetBatchForwardsGroupsAsBatches) {
  // Children must receive one get_batch per group — never the base class's
  // one-by-one fallback (mirrors PutBatchForwardsGroupsAsBatches).
  proc::ProcessScope scope(*producer_);
  auto small = std::make_shared<BatchCountingConnector>("count-small");
  auto large = std::make_shared<BatchCountingConnector>("count-large");
  MultiConnector multi = counting_multi(small, large);
  const std::vector<Bytes> items = {
      pattern_bytes(10, 0), pattern_bytes(4000, 1), pattern_bytes(20, 2),
      pattern_bytes(8000, 3)};
  const std::vector<Key> keys = multi.put_batch(items);
  const auto values = multi.get_batch(keys);
  ASSERT_EQ(values.size(), keys.size());
  EXPECT_EQ(small->get_batch_calls, 1);
  EXPECT_EQ(small->get_batch_items, 2u);
  EXPECT_EQ(large->get_batch_calls, 1);
  EXPECT_EQ(large->get_batch_items, 2u);
  EXPECT_EQ(small->gets, 0);
  EXPECT_EQ(large->gets, 0);
}

TEST_F(MultiTest, ExistsAndEvictBatchForwardGroupsAsBatches) {
  proc::ProcessScope scope(*producer_);
  auto small = std::make_shared<BatchCountingConnector>("count-small");
  auto large = std::make_shared<BatchCountingConnector>("count-large");
  MultiConnector multi = counting_multi(small, large);
  // Keys interleave across the children: even positions small, odd large.
  const std::vector<Key> keys = multi.put_batch(
      {pattern_bytes(10, 0), pattern_bytes(4000, 1), pattern_bytes(20, 2),
       pattern_bytes(8000, 3), pattern_bytes(30, 4), pattern_bytes(9000, 5)});
  EXPECT_EQ(multi.exists_batch(keys), std::vector<bool>(keys.size(), true));
  EXPECT_EQ(small->exists_batch_calls, 1);
  EXPECT_EQ(small->exists_batch_items, 3u);
  EXPECT_EQ(large->exists_batch_calls, 1);
  EXPECT_EQ(large->exists_batch_items, 3u);

  multi.evict_batch({keys[3], keys[0], keys[5]});
  EXPECT_EQ(small->evict_batch_calls, 1);
  EXPECT_EQ(small->evict_batch_items, 1u);
  EXPECT_EQ(large->evict_batch_calls, 1);
  EXPECT_EQ(large->evict_batch_items, 2u);
  // Only the listed keys are gone.
  const std::vector<bool> expected{false, true, true, false, true, false};
  EXPECT_EQ(multi.exists_batch(keys), expected);
}

TEST(Instrumented, PutBatchRecordsBatchSizeMetricAndForwards) {
  obs::set_enabled(true);
  auto world = proc::World::make_local();
  proc::ProcessScope scope(world->spawn("p", "localhost"));
  auto counting = std::make_shared<BatchCountingConnector>("batch-metric");
  InstrumentedConnector instrumented(counting);
  const std::vector<Bytes> items = {pattern_bytes(10, 0), pattern_bytes(20, 1),
                                    pattern_bytes(30, 2)};
  instrumented.put_batch(items);
  // Forwarded as one bulk call, not unrolled through put().
  EXPECT_EQ(counting->batch_calls, 1);
  EXPECT_EQ(counting->puts, 0);
  auto& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.counter("connector.batch-metric.put_batch").value(), 1u);
  const obs::Histogram* items_hist =
      registry.find_histogram("connector.batch-metric.put_batch.items");
  ASSERT_NE(items_hist, nullptr);
  EXPECT_EQ(items_hist->count(), 1u);
  EXPECT_DOUBLE_EQ(items_hist->mean(), 3.0);
}

TEST(Instrumented, GetBatchRecordsBatchSizeMetricAndForwards) {
  obs::set_enabled(true);
  auto world = proc::World::make_local();
  proc::ProcessScope scope(world->spawn("p", "localhost"));
  auto counting = std::make_shared<BatchCountingConnector>("get-batch-metric");
  InstrumentedConnector instrumented(counting);
  const std::vector<Bytes> items = {pattern_bytes(10, 0), pattern_bytes(20, 1),
                                    pattern_bytes(30, 2)};
  const std::vector<Key> keys = instrumented.put_batch(items);
  const auto values = instrumented.get_batch(keys);
  ASSERT_EQ(values.size(), keys.size());
  // Forwarded as one bulk call, not unrolled through get().
  EXPECT_EQ(counting->get_batch_calls, 1);
  EXPECT_EQ(counting->gets, 0);
  auto& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.counter("connector.get-batch-metric.get_batch").value(),
            1u);
  const obs::Histogram* items_hist =
      registry.find_histogram("connector.get-batch-metric.get_batch.items");
  ASSERT_NE(items_hist, nullptr);
  EXPECT_EQ(items_hist->count(), 1u);
  EXPECT_DOUBLE_EQ(items_hist->mean(), 3.0);
}

TEST(Instrumented, RedisExistsBatchIsOneRequestAndOneBatchOp) {
  obs::set_enabled(true);
  auto world = proc::World::make_local();
  kv::KvServer::start(*world, "localhost", "instrumented-probe");
  proc::ProcessScope scope(world->spawn("p", "localhost"));
  InstrumentedConnector instrumented(
      std::make_shared<connectors::RedisConnector>(
          kv::kv_address("localhost", "instrumented-probe")));
  std::vector<Key> keys;
  for (std::uint64_t i = 0; i < 8; ++i) {
    keys.push_back(instrumented.put(pattern_bytes(100, i)));
  }
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& requests = registry.counter("rpc.requests");
  obs::Counter& batches = registry.counter("connector.redis.exists_batch");
  obs::Counter& singles = registry.counter("connector.redis.exists");
  const std::uint64_t requests_before = requests.value();
  const std::uint64_t batches_before = batches.value();
  const std::uint64_t singles_before = singles.value();

  EXPECT_EQ(instrumented.exists_batch(keys), std::vector<bool>(8, true));
  // Forwarded as one pipelined kv request, not unrolled through exists().
  EXPECT_EQ(requests.value() - requests_before, 1u);
  EXPECT_EQ(batches.value() - batches_before, 1u);
  EXPECT_EQ(singles.value() - singles_before, 0u);
  const obs::Histogram* items_hist =
      registry.find_histogram("connector.redis.exists_batch.items");
  ASSERT_NE(items_hist, nullptr);
  EXPECT_EQ(items_hist->count(), 1u);
  EXPECT_DOUBLE_EQ(items_hist->mean(), 8.0);
}

// Every decorator forwards each batch verb as one batch carrying every item,
// so a pipelined inner connector keeps its one round trip per batch.
TEST(Decorators, ForwardEachBatchVerbAsOneBatch) {
  auto world = proc::World::make_local();
  proc::ProcessScope scope(world->spawn("p", "localhost"));
  using Wrap =
      std::function<std::shared_ptr<Connector>(std::shared_ptr<Connector>)>;
  const std::vector<std::pair<std::string, Wrap>> decorators = {
      {"instrumented",
       [](std::shared_ptr<Connector> inner) {
         return std::make_shared<InstrumentedConnector>(std::move(inner));
       }},
      {"access",
       [](std::shared_ptr<Connector> inner) {
         return std::make_shared<connectors::AccessControlConnector>(
             std::move(inner), std::set<std::string>{"local"});
       }},
      {"chaos", [](std::shared_ptr<Connector> inner) {
         return std::make_shared<swarm::FaultInjectedConnector>(
             std::move(inner));
       }}};
  const std::vector<Bytes> items = {pattern_bytes(10, 0), pattern_bytes(20, 1),
                                    pattern_bytes(30, 2)};
  for (const auto& [name, wrap] : decorators) {
    SCOPED_TRACE(name);
    auto counting = std::make_shared<BatchCountingConnector>("fwd-" + name);
    const std::shared_ptr<Connector> decorator = wrap(counting);
    const std::vector<Key> keys = decorator->put_batch(items);
    EXPECT_EQ(decorator->get_batch(keys).size(), items.size());
    EXPECT_EQ(decorator->exists_batch(keys),
              std::vector<bool>(items.size(), true));
    decorator->evict_batch(keys);
    EXPECT_EQ(counting->batch_calls, 1);
    EXPECT_EQ(counting->batch_items, items.size());
    EXPECT_EQ(counting->get_batch_calls, 1);
    EXPECT_EQ(counting->get_batch_items, items.size());
    EXPECT_EQ(counting->exists_batch_calls, 1);
    EXPECT_EQ(counting->exists_batch_items, items.size());
    EXPECT_EQ(counting->evict_batch_calls, 1);
    EXPECT_EQ(counting->evict_batch_items, items.size());
    EXPECT_EQ(counting->puts + counting->gets, 0);
  }
}

// ------------------------------------------------- connector registry ----

TEST(Registry, UnknownTypeThrows) {
  ConnectorConfig cfg{.type = "warp-drive", .params = {}};
  EXPECT_THROW(ConnectorRegistry::instance().reconstruct(cfg),
               NotRegisteredError);
}

TEST(Registry, BuiltinTypesPresent) {
  auto& reg = ConnectorRegistry::instance();
  EXPECT_TRUE(reg.has_type("local"));
  EXPECT_TRUE(reg.has_type("file"));
  EXPECT_TRUE(reg.has_type("redis"));
  EXPECT_TRUE(reg.has_type("multi"));
  EXPECT_TRUE(reg.has_type("margo"));
  EXPECT_TRUE(reg.has_type("ucx"));
  EXPECT_TRUE(reg.has_type("zmq"));
  EXPECT_TRUE(reg.has_type("globus"));
  EXPECT_TRUE(reg.has_type("endpoint"));
  EXPECT_TRUE(reg.has_type("access"));
}

}  // namespace
}  // namespace ps::core
