// Allocation guards for the proxy hand-off and kv request hot paths.
//
// A replacement global operator new counts the calling thread's heap
// allocations and bytes. Dereferencing a resolved proxy, updating a metric
// through its handle, probing the object cache, and opening a span while
// tracing is off each run several times per task hand-off; none of them may
// touch the heap. A kv read copies its value once, a cache-off Store read
// decodes that copy in place, and instrumentation adds no allocation to a
// kv request.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/cache.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"
#include "kv/client.hpp"
#include "kv/server.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/world.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;
thread_local std::uint64_t t_allocated_bytes = 0;

void* counted_allocate(std::size_t n) {
  ++t_allocations;
  t_allocated_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_allocate(n); }
void* operator new[](std::size_t n) { return counted_allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ps {
namespace {

constexpr int kIterations = 10'000;

/// Heap allocations the calling thread makes while running `fn` kIterations
/// times.
template <typename F>
std::uint64_t allocations_during(F&& fn) {
  const std::uint64_t before = t_allocations;
  for (int i = 0; i < kIterations; ++i) fn();
  return t_allocations - before;
}

TEST(HotPath, CountingAllocatorSeesAllocations) {
  // The guard itself: a heap string must register.
  EXPECT_EQ(allocations_during([] {
              const std::string s(64, 'x');
              (void)s;
            }),
            static_cast<std::uint64_t>(kIterations));
}

TEST(HotPath, ResolvedProxyDerefDoesNotAllocate) {
  const std::unique_ptr<proc::World> world = proc::World::make_local();
  proc::ProcessScope scope(world->spawn("hot", "localhost"));
  auto store = std::make_shared<core::Store>(
      "hotpath", std::make_shared<connectors::LocalConnector>());
  core::register_store(store);
  const Bytes payload = pattern_bytes(1024, 1);
  const core::Proxy<Bytes> proxy = store->proxy(payload);
  ASSERT_EQ(proxy.resolve(), payload);  // first resolve publishes the target
  const Bytes* target = &*proxy;
  bool stable = true;
  EXPECT_EQ(allocations_during([&] { stable = stable && &*proxy == target; }),
            0u);
  EXPECT_TRUE(stable);
  core::unregister_store("hotpath");
}

TEST(HotPath, MetricHandleUpdatesDoNotAllocate) {
  ASSERT_EQ(obs::scoped_registry(), nullptr);  // scoping off
  const obs::CounterHandle counter("hotpath.counter.with.a.long.name");
  const obs::HistogramHandle histogram("hotpath.histogram.with.a.long.name");
  const obs::GaugeHandle gauge("hotpath.gauge.with.a.long.name",
                               obs::GaugeAgg::kMax);
  EXPECT_EQ(allocations_during([&] { counter.get().inc(); }), 0u);
  EXPECT_EQ(allocations_during([&] { histogram.get().observe(2e-6); }), 0u);
  EXPECT_EQ(allocations_during([&] { gauge.get().set(3.0); }), 0u);
  EXPECT_EQ(counter.get().value(), static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(histogram.get().count(), static_cast<std::uint64_t>(kIterations));
}

TEST(HotPath, CacheHitDoesNotAllocate) {
  core::ObjectCache cache(4);
  const std::string key = "hotpath/" + std::string(48, 'k');
  cache.put<Bytes>(key, std::make_shared<const Bytes>(pattern_bytes(64, 2)));
  EXPECT_EQ(allocations_during([&] { (void)cache.get<Bytes>(key); }), 0u);
  EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kIterations));
}

TEST(HotPath, DisabledSpanDoesNotAllocate) {
  ASSERT_FALSE(obs::TraceRecorder::global().enabled());
  const std::string subject(64, 's');  // would need the heap if copied
  EXPECT_EQ(allocations_during([&] {
              obs::SpanScope span("hotpath.span.with.a.long.name", subject,
                                  "a-long-critical-path-kind");
            }),
            0u);
}

/// A KvServer bound at "redis://localhost/hot" and a client process.
class KvHotPath : public ::testing::Test {
 protected:
  KvHotPath()
      : world_(proc::World::make_local()),
        scope_(world_->spawn("kv-hot", "localhost")),
        server_(kv::KvServer::start(*world_, "localhost", "hot")),
        client_(kv::kv_address("localhost", "hot")) {}

  /// A cache-off Store over the fixture's server.
  std::shared_ptr<core::Store> uncached_store(const std::string& name) {
    return std::make_shared<core::Store>(
        name,
        std::make_shared<connectors::RedisConnector>(
            kv::kv_address("localhost", "hot")),
        core::Store::Options{.cache_size = 0});
  }

  std::unique_ptr<proc::World> world_;
  proc::ProcessScope scope_;
  std::shared_ptr<kv::KvServer> server_;
  kv::KvClient client_;
};

TEST_F(KvHotPath, GetCopiesTheValueOnce) {
  const Bytes value = pattern_bytes(1 << 20, 3);
  client_.set("big", value);
  ASSERT_EQ(client_.get("big"), value);  // warms the channel and handles
  const std::uint64_t before = t_allocated_bytes;
  const std::optional<Bytes> got = client_.get("big");
  const std::uint64_t allocated = t_allocated_bytes - before;
  ASSERT_EQ(got, value);
  // One 1 MiB copy for the reply; sizing the response must not copy.
  EXPECT_LT(allocated, (3u << 20) / 2);
}

TEST_F(KvHotPath, StoreGetDecodesTheReplyInPlace) {
  const std::shared_ptr<core::Store> store = uncached_store("kv-hot-get");
  const Bytes value = pattern_bytes(1 << 20, 5);
  const core::Key key = store->put(value);
  ASSERT_EQ(store->get<Bytes>(key), value);  // warms the channel and handles
  const std::uint64_t before = t_allocated_bytes;
  const std::optional<Bytes> got = store->get<Bytes>(key);
  const std::uint64_t allocated = t_allocated_bytes - before;
  ASSERT_EQ(got, value);
  // The kv reply is the one 1 MiB buffer; the decode reuses it.
  EXPECT_LT(allocated, (3u << 20) / 2);
}

TEST_F(KvHotPath, ResolveBatchDecodesEachReplyInPlace) {
  const std::shared_ptr<core::Store> store = uncached_store("kv-hot-batch");
  std::vector<Bytes> values;
  std::vector<core::Key> keys;
  for (int i = 0; i < 4; ++i) {
    values.push_back(pattern_bytes(1 << 20, 10 + i));
    keys.push_back(store->put(values.back()));
  }
  ASSERT_EQ(store->resolve_batch<Bytes>(keys)[0], values[0]);  // warms
  const std::uint64_t before = t_allocated_bytes;
  const std::vector<std::optional<Bytes>> got =
      store->resolve_batch<Bytes>(keys);
  const std::uint64_t allocated = t_allocated_bytes - before;
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(got[i], values[i]);
  // One kv reply per key, each decoded in place and moved into its slot:
  // no value is copied on its way to the caller.
  EXPECT_LT(allocated, 5u << 20);
}

TEST_F(KvHotPath, InstrumentationAddsNoAllocationToARequest) {
  client_.set("k", pattern_bytes(16, 4));
  ASSERT_TRUE(client_.exists("k"));  // warms the channel and handles
  // The channel's in-flight deque allocates one block per 64 requests, so
  // whole multiples of 64 requests see the same count in both runs.
  const auto allocations_per_6400_exists = [&] {
    const std::uint64_t before = t_allocations;
    for (int i = 0; i < 6400; ++i) (void)client_.exists("k");
    return t_allocations - before;
  };
  obs::set_enabled(false);
  const std::uint64_t off = allocations_per_6400_exists();
  obs::set_enabled(true);
  const std::uint64_t on = allocations_per_6400_exists();
  EXPECT_EQ(on, off);
}

}  // namespace
}  // namespace ps
