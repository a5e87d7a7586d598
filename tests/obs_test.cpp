// Observability subsystem: metrics registry, histograms, tracing, and the
// InstrumentedConnector decorator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "connectors/endpoint.hpp"
#include "connectors/local.hpp"
#include "core/instrumented.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"
#include "endpoint/endpoint.hpp"
#include "faas/cloud.hpp"
#include "faas/executor.hpp"
#include "faas/registry.hpp"
#include "obs/context.hpp"
#include "obs/critical.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "proc/world.hpp"
#include "relay/relay.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {
namespace {

using core::InstrumentedConnector;
using core::Key;
using core::Proxy;
using core::Store;
using connectors::LocalConnector;

/// Parses an export with the obs JSON reader, failing the test on error.
JsonValue parse(const std::string& text) {
  std::string error;
  std::optional<JsonValue> value = parse_json(text, &error);
  EXPECT_TRUE(value.has_value()) << error;
  return value ? *value : JsonValue{};
}

// ----------------------------------------------------------- histogram ----

TEST(Histogram, BucketBoundsAreLogSpaced) {
  const auto& bounds = Histogram::bounds();
  ASSERT_EQ(bounds.size(), Histogram::kBuckets);
  EXPECT_NEAR(bounds.front(), 1.778e-7, 1e-10);  // 1e-7 * 10^(1/4)
  EXPECT_NEAR(bounds[3], 1e-6, 1e-12);           // decade boundary
  EXPECT_NEAR(bounds.back(), 1000.0, 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    // Four buckets per decade.
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::pow(10.0, 0.25), 1e-9);
  }
}

TEST(Histogram, BucketIndexBoundaries) {
  const auto& bounds = Histogram::bounds();
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{20},
                              Histogram::kBuckets - 1}) {
    // A value exactly at an upper bound belongs to that bucket...
    EXPECT_EQ(Histogram::bucket_index(bounds[i]), i);
    // ...and just above it to the next.
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_index(bounds[i] * 1.0001), i + 1);
    }
  }
  // Values beyond the last bound land in the final bucket.
  EXPECT_EQ(Histogram::bucket_index(1e9), Histogram::kBuckets - 1);
}

TEST(Histogram, ObserveFillsTheRightBucket) {
  Histogram h;
  const auto& bounds = Histogram::bounds();
  h.observe(bounds[5]);          // exactly at the bound -> bucket 5
  h.observe(bounds[5] * 1.001);  // just above -> bucket 6
  h.observe(1e9);                // clamped into the last bucket
  const auto nonzero = h.nonzero_buckets();
  ASSERT_EQ(nonzero.size(), 3u);
  EXPECT_EQ(nonzero[0].first, bounds[5]);
  EXPECT_EQ(nonzero[0].second, 1u);
  EXPECT_EQ(nonzero[1].first, bounds[6]);
  EXPECT_EQ(nonzero[1].second, 1u);
  EXPECT_EQ(nonzero[2].first, bounds.back());
  EXPECT_EQ(nonzero[2].second, 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, ExactPercentilesMatchStatsForShortSeries) {
  Histogram h;
  ps::Stats reference;
  for (int i = 1; i <= 200; ++i) {
    const double v = static_cast<double>(i) * 1e-3;
    h.observe(v);
    reference.add(v);
  }
  // While the series fits the reservoir, percentiles are computed through
  // ps::Stats and are exact — not bucket-interpolated.
  EXPECT_DOUBLE_EQ(h.p50(), reference.p50());
  EXPECT_DOUBLE_EQ(h.p95(), reference.p95());
  EXPECT_DOUBLE_EQ(h.p99(), reference.p99());
  EXPECT_NEAR(h.mean(), reference.mean(), 1e-8);
  EXPECT_NEAR(h.min(), 1e-3, 1e-9);
  EXPECT_NEAR(h.max(), 0.2, 1e-9);
}

TEST(Histogram, InterpolatedPercentilesBeyondReservoir) {
  Histogram h;
  for (std::size_t i = 0; i < Histogram::kReservoir + 1000; ++i) {
    h.observe(1e-3);
  }
  ASSERT_GT(h.count(), Histogram::kReservoir);
  // Interpolation can only place the percentile inside the 1 ms bucket.
  const std::size_t bucket = Histogram::bucket_index(1e-3);
  const double lower = Histogram::bounds()[bucket - 1];
  const double upper = Histogram::bounds()[bucket];
  for (const double p : {50.0, 95.0, 99.0}) {
    EXPECT_GE(h.percentile(p), lower);
    EXPECT_LE(h.percentile(p), upper);
  }
}

TEST(Histogram, ConcurrentObserves) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(1e-6 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_total = 0;
  for (const auto& [le, n] : h.nonzero_buckets()) bucket_total += n;
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_NEAR(h.min(), 1e-6, 1e-12);
  EXPECT_NEAR(h.max(), 8e-6, 1e-12);
}

// ----------------------------------------------------- counters/gauges ----

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 4.75);
  g.add(-4.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(9.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ------------------------------------------------------------- registry ----

TEST(Registry, SameNameReturnsSameMetric) {
  auto& registry = MetricsRegistry::global();
  EXPECT_EQ(&registry.counter("reg.same"), &registry.counter("reg.same"));
  EXPECT_EQ(&registry.gauge("reg.same"), &registry.gauge("reg.same"));
  EXPECT_EQ(&registry.histogram("reg.same"), &registry.histogram("reg.same"));
  EXPECT_EQ(registry.find_histogram("reg.same"),
            &registry.histogram("reg.same"));
  EXPECT_EQ(registry.find_histogram("reg.no-such"), nullptr);
}

TEST(Registry, ResetZeroesValuesButKeepsReferences) {
  auto& registry = MetricsRegistry::global();
  Counter& c = registry.counter("reg.reset.count");
  Histogram& h = registry.histogram("reg.reset.hist");
  c.inc(7);
  h.observe(0.5);
  registry.reset();
  EXPECT_EQ(&registry.counter("reg.reset.count"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Registry, JsonExportRoundTrips) {
  auto& registry = MetricsRegistry::global();
  registry.counter("json.requests").inc(42);
  registry.gauge("json.depth").set(2.5);
  Histogram& h = registry.histogram("json.latency");
  h.reset();
  h.observe(1e-3);
  h.observe(2e-3);
  h.observe(3e-3);

  const std::string text = registry.dump_json();
  JsonValue root = parse(text);

  EXPECT_EQ(root.at("counters").at("json.requests").num(), 42.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("json.depth").num(), 2.5);

  const JsonValue& hist = root.at("histograms").at("json.latency");
  EXPECT_EQ(hist.at("count").num(), 3.0);
  EXPECT_NEAR(hist.at("sum_s").num(), 6e-3, 1e-9);
  EXPECT_NEAR(hist.at("mean_s").num(), 2e-3, 1e-9);
  EXPECT_NEAR(hist.at("min_s").num(), 1e-3, 1e-9);
  EXPECT_NEAR(hist.at("max_s").num(), 3e-3, 1e-9);
  EXPECT_NEAR(hist.at("p50_s").num(), h.p50(), 1e-9);
  EXPECT_NEAR(hist.at("p99_s").num(), h.p99(), 1e-9);
  std::uint64_t bucket_total = 0;
  for (const JsonValue& bucket : hist.at("buckets").arr()) {
    ASSERT_EQ(bucket.arr().size(), 2u);  // [upper_bound, count]
    bucket_total += static_cast<std::uint64_t>(bucket.arr()[1].num());
  }
  EXPECT_EQ(bucket_total, 3u);

  // The table export mentions every registered metric by name.
  const std::string table = registry.dump_table();
  EXPECT_NE(table.find("json.requests"), std::string::npos);
  EXPECT_NE(table.find("json.depth"), std::string::npos);
  EXPECT_NE(table.find("json.latency"), std::string::npos);
}

// ---------------------------------------------------------------- timer ----

TEST(TimerTest, RecordsVirtualElapsedOnce) {
  ASSERT_TRUE(enabled());
  Histogram vtime;
  {
    Timer timer(&vtime);
    sim::vadvance(0.25);
    EXPECT_NEAR(timer.stop(), 0.25, 1e-9);
    sim::vadvance(1.0);  // after stop(): not measured, dtor must not re-add
  }
  ASSERT_EQ(vtime.count(), 1u);
  EXPECT_NEAR(vtime.sum(), 0.25, 1e-9);
}

TEST(TimerTest, DisabledTimerRecordsNothing) {
  Histogram vtime;
  set_enabled(false);
  {
    Timer timer(&vtime);
    sim::vadvance(0.25);
  }
  set_enabled(true);
  EXPECT_EQ(vtime.count(), 0u);
}

// ---------------------------------------------------------------- trace ----

TEST(Trace, RecordsDualTimestampsInOrder) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  sim::vadvance(0.125);
  { SpanScope first("first", "subj"); }
  sim::vadvance(0.5);
  {
    SpanScope work("work", "subj");
    sim::vadvance(0.25);
  }
  recorder.set_enabled(false);
  { SpanScope dropped("dropped", "subj"); }  // disabled: must not record

  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[1].name, "work");
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.subject, "subj");
    EXPECT_LE(span.wall_start, span.wall_end);
    EXPECT_LE(span.vtime_start, span.vtime_end);
  }
  EXPECT_GE(spans[1].wall_start, spans[0].wall_end);
  EXPECT_NEAR(spans[1].vtime_start - spans[0].vtime_start, 0.5, 1e-9);
  EXPECT_NEAR(spans[1].vtime_end - spans[1].vtime_start, 0.25, 1e-9);
  recorder.clear();
}

// -------------------------------------------- instrumented connector ------

/// World with two processes on different sites, as the store tests use.
class ObsStoreTest : public ::testing::Test {
 protected:
  ObsStoreTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("site-a", net::hpc_interconnect(10e-6, 10e9));
    world_->fabric().add_site("site-b", net::hpc_interconnect(10e-6, 10e9));
    world_->fabric().connect_sites("site-a", "site-b",
                                   net::wan_tcp(20e-3, 1e9));
    world_->fabric().add_host("host-a", "site-a");
    world_->fabric().add_host("host-b", "site-b");
    producer_ = &world_->spawn("producer", "host-a");
    consumer_ = &world_->spawn("consumer", "host-b");
    set_enabled(true);
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* producer_ = nullptr;
  proc::Process* consumer_ = nullptr;
};

TEST_F(ObsStoreTest, InstrumentedConnectorPassesOperationsThrough) {
  proc::ProcessScope scope(*producer_);
  auto raw = std::make_shared<LocalConnector>();
  auto wrapped = InstrumentedConnector::wrap(raw);
  ASSERT_NE(wrapped, raw);
  // Decorator is transparent: same type/config/traits as the raw connector.
  EXPECT_EQ(wrapped->type(), raw->type());
  EXPECT_EQ(wrapped->config(), raw->config());
  // Idempotent: wrapping twice adds no second layer.
  EXPECT_EQ(InstrumentedConnector::wrap(wrapped), wrapped);

  const auto before = MetricsRegistry::global().counters();
  const auto delta = [&before](const std::string& name) {
    const auto now = MetricsRegistry::global().counters();
    const auto it = before.find(name);
    return now.at(name) - (it == before.end() ? 0 : it->second);
  };

  const Bytes data = pattern_bytes(64, 1);
  const Key key = wrapped->put(data);
  EXPECT_EQ(wrapped->get(key), data);       // visible through the decorator
  EXPECT_EQ(raw->get(key), data);           // ...and on the raw connector
  EXPECT_TRUE(wrapped->exists(key));
  const auto keys =
      wrapped->put_batch({pattern_bytes(8, 2), pattern_bytes(8, 3)});
  EXPECT_EQ(keys.size(), 2u);
  wrapped->evict(key);
  EXPECT_FALSE(raw->exists(key));

  EXPECT_EQ(delta("connector.local.put"), 1u);
  EXPECT_EQ(delta("connector.local.get"), 1u);  // the raw get is not counted
  EXPECT_EQ(delta("connector.local.exists"), 1u);
  EXPECT_EQ(delta("connector.local.put_batch"), 1u);
  EXPECT_EQ(delta("connector.local.evict"), 1u);
  // The per-op latency histograms saw the same traffic.
  const Histogram* put_vtime =
      MetricsRegistry::global().find_histogram("connector.local.put.vtime");
  ASSERT_NE(put_vtime, nullptr);
  EXPECT_GE(put_vtime->count(), 1u);
}

TEST_F(ObsStoreTest, StoreMetricsSplitEvictionKinds) {
  proc::ProcessScope scope(*producer_);
  Store::Options options;
  options.cache_size = 2;
  auto store = std::make_shared<Store>(
      "obs-split", InstrumentedConnector::wrap(
                       std::make_shared<LocalConnector>()),
      options);

  const auto before = MetricsRegistry::global().counters();
  const auto delta = [&before](const std::string& name) {
    const auto now = MetricsRegistry::global().counters();
    const auto it = before.find(name);
    return now.at(name) - (it == before.end() ? 0 : it->second);
  };

  // Three distinct cached objects overflow the 2-slot LRU cache.
  std::vector<Key> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(store->put(i));
  for (const Key& key : keys) store->get<int>(key);
  store->exists(keys[0]);
  store->evict(keys[0]);

  EXPECT_EQ(delta("store.puts"), 3u);
  EXPECT_EQ(delta("store.gets"), 3u);
  EXPECT_EQ(delta("store.exists"), 1u);
  EXPECT_EQ(delta("store.evicts"), 1u);          // the explicit evict() call
  EXPECT_EQ(store->cache().evictions(), 1u);     // the LRU overflow
}

TEST_F(ObsStoreTest, StoreEventsFollowMetricsScoping) {
  const std::vector<std::string> names = {"store.puts", "store.gets",
                                          "store.cache.hits",
                                          "store.get.bytes"};
  const auto values = [&names](MetricsRegistry& registry) {
    std::map<std::string, std::uint64_t> out;
    for (const std::string& name : names) {
      out[name] = registry.counter(name).value();
    }
    return out;
  };
  const Bytes payload = pattern_bytes(100, 7);
  std::shared_ptr<Store> store;
  {
    proc::ProcessScope scope(*producer_);
    store = std::make_shared<Store>("obs-scoped",
                                    std::make_shared<LocalConnector>());
  }
  const std::uint64_t wire = store->serialize(payload).size();
  // One put, then a get that misses and a get that hits.
  const auto exercise = [&] {
    const Key key = store->put(payload);
    EXPECT_EQ(store->get<Bytes>(key), payload);
    EXPECT_EQ(store->get<Bytes>(key), payload);
  };
  const std::map<std::string, std::uint64_t> expected = {
      {"store.puts", 1}, {"store.gets", 2}, {"store.cache.hits", 1},
      {"store.get.bytes", wire}};

  MetricsRegistry& global = MetricsRegistry::global();
  const auto global_before = values(global);
  world_->set_metrics_scoping(true);
  for (proc::Process* process : {producer_, consumer_}) {
    proc::ProcessScope scope(*process);
    exercise();
  }
  world_->set_metrics_scoping(false);
  EXPECT_EQ(values(producer_->metrics()), expected);
  EXPECT_EQ(values(consumer_->metrics()), expected);
  EXPECT_EQ(values(global), global_before);  // nothing reached the global

  // Scoping off: the same events land in the global registry.
  {
    proc::ProcessScope scope(*producer_);
    exercise();
  }
  const auto global_after = values(global);
  for (const std::string& name : names) {
    EXPECT_EQ(global_after.at(name) - global_before.at(name),
              expected.at(name))
        << name;
  }
  EXPECT_EQ(values(producer_->metrics()), expected);
}

TEST_F(ObsStoreTest, ProxyLifecycleTraceHasOrderedEvents) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);

  Bytes wire;
  std::string subject;
  {
    proc::ProcessScope scope(*producer_);
    auto store = std::make_shared<Store>(
        "obs-trace", InstrumentedConnector::wrap(
                         std::make_shared<LocalConnector>()));
    core::register_store(store, /*overwrite=*/true);
    Proxy<std::string> p = store->proxy(std::string("traced"));
    subject = core::trace_subject(store->name(),
                                  p.factory().descriptor()->key);
    wire = serde::to_bytes(p);
  }
  {
    proc::ProcessScope scope(*consumer_);
    auto p = serde::from_bytes<Proxy<std::string>>(wire);
    EXPECT_EQ(*p, "traced");  // resolve across the simulated WAN
  }

  // The proxy's lifecycle is the spans carrying its subject: created at the
  // producer's site, then resolved at the consumer's (a cache probe, and on
  // the miss a deserialization), all in the creating span's trace.
  std::vector<SpanRecord> lifecycle;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.subject == subject) lifecycle.push_back(span);
  }
  const std::pair<const char*, const char*> expected[] = {
      {"store.proxy", "site-a"},
      {"proxy.resolve", "site-b"},
      {"store.cache.probe", "site-b"},
      {"store.deserialize", "site-b"}};
  const SpanRecord* previous = nullptr;
  for (const auto& [name, site] : expected) {
    const auto it = std::find_if(
        lifecycle.begin(), lifecycle.end(),
        [name = std::string(name)](const SpanRecord& span) {
          return span.name == name;
        });
    ASSERT_NE(it, lifecycle.end()) << "missing lifecycle span " << name;
    EXPECT_EQ(it->site, site) << name;
    if (previous != nullptr) {
      EXPECT_EQ(it->ctx.trace_hi, previous->ctx.trace_hi) << name;
      EXPECT_EQ(it->ctx.trace_lo, previous->ctx.trace_lo) << name;
      EXPECT_GE(it->vtime_start, previous->vtime_start) << name;
    }
    previous = &*it;
  }

  recorder.set_enabled(false);
  recorder.clear();
  core::unregister_store("obs-trace");
}

// ------------------------------------------------- distributed tracing ----

TEST(TraceContextTest, ChildLinksAndSerdeRoundTrip) {
  const TraceContext root = new_root_context();
  EXPECT_TRUE(root.valid());
  EXPECT_NE(root.span_id, 0u);
  EXPECT_EQ(root.parent_span_id, 0u);

  const TraceContext child = child_of(root);
  EXPECT_EQ(child.trace_hi, root.trace_hi);
  EXPECT_EQ(child.trace_lo, root.trace_lo);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_EQ(child.trace_id_hex(), root.trace_id_hex());
  EXPECT_EQ(child.trace_id_hex().size(), 32u);

  const auto decoded = serde::from_bytes<TraceContext>(serde::to_bytes(child));
  EXPECT_EQ(decoded, child);

  // The invalid (zero) context survives the wire too and stays invalid, so
  // receivers of untraced messages can adopt unconditionally.
  const auto none =
      serde::from_bytes<TraceContext>(serde::to_bytes(TraceContext{}));
  EXPECT_FALSE(none.valid());
  EXPECT_EQ(none, TraceContext{});
}

TEST_F(ObsStoreTest, TraceContextSurvivesFactoryEncodeDecode) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);

  Bytes wire;
  TraceContext created;
  {
    proc::ProcessScope scope(*producer_);
    auto store = std::make_shared<Store>(
        "obs-ctx", std::make_shared<LocalConnector>());
    core::register_store(store, /*overwrite=*/true);
    Proxy<std::string> p = store->proxy(std::string("ctx"));
    ASSERT_TRUE(p.factory().descriptor().has_value());
    created = p.factory().descriptor()->trace;
    EXPECT_TRUE(created.valid());  // minted by the store.proxy span
    wire = serde::to_bytes(p);
  }
  {
    proc::ProcessScope scope(*consumer_);
    auto p = serde::from_bytes<Proxy<std::string>>(wire);
    ASSERT_TRUE(p.factory().descriptor().has_value());
    // The context crossed the process boundary byte-identical.
    EXPECT_EQ(p.factory().descriptor()->trace, created);
    EXPECT_EQ(*p, "ctx");
  }

  // The remote resolve adopted the carried context: its span is a child of
  // the store.proxy span, in the same trace, despite running in another
  // simulated process.
  bool found_resolve = false;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.name != "proxy.resolve") continue;
    found_resolve = true;
    EXPECT_EQ(span.ctx.trace_hi, created.trace_hi);
    EXPECT_EQ(span.ctx.trace_lo, created.trace_lo);
    EXPECT_EQ(span.ctx.parent_span_id, created.span_id);
    EXPECT_EQ(span.process, "consumer");
    EXPECT_EQ(span.site, "site-b");
  }
  EXPECT_TRUE(found_resolve);

  recorder.set_enabled(false);
  recorder.clear();
  core::unregister_store("obs-ctx");
}

TEST(DistributedTrace, CrossSiteFaasRoundTripIsOneCausalTrace) {
  proc::World world;
  net::Fabric& fabric = world.fabric();
  fabric.add_site("alcf", net::hpc_interconnect(10e-6, 10e9));
  fabric.add_site("uchicago", net::hpc_interconnect(10e-6, 10e9));
  fabric.add_site("aws", net::hpc_interconnect(50e-6, 10e9));
  fabric.connect_sites("alcf", "uchicago", net::wan_tcp(20e-3, 1e9));
  fabric.connect_sites("alcf", "aws", net::wan_tcp(35e-3, 0.6e9));
  fabric.connect_sites("uchicago", "aws", net::wan_tcp(35e-3, 0.6e9));
  fabric.add_host("client-host", "alcf");
  fabric.add_host("task-host", "uchicago");
  fabric.add_host("cloud-host", "aws");

  proc::Process& client = world.spawn("trace-client", "client-host");
  proc::Process& worker = world.spawn("trace-worker", "task-host");

  faas::FunctionRegistry::instance().register_function(
      "obs-trace-task", [](BytesView request) {
        auto proxy = serde::from_bytes<Proxy<Bytes>>(request);
        return serde::to_bytes<std::uint64_t>(proxy->size());
      });

  auto cloud = faas::CloudService::start(world, "cloud-host");
  faas::ComputeEndpoint gc_endpoint(cloud, worker);
  relay::RelayServer::start(world, "cloud-host", "obs-trace-relay");
  auto ep_client =
      endpoint::Endpoint::start(world, "client-host", "obs-ep-client",
                                "relay://cloud-host/obs-trace-relay");
  auto ep_task =
      endpoint::Endpoint::start(world, "task-host", "obs-ep-task",
                                "relay://cloud-host/obs-trace-relay");

  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);

  TraceContext root_ctx;
  {
    proc::ProcessScope scope(client);
    auto store = std::make_shared<Store>(
        "obs-trace-faas",
        std::make_shared<connectors::EndpointConnector>(
            std::vector<std::string>{
                endpoint::endpoint_address("client-host", "obs-ep-client"),
                endpoint::endpoint_address("task-host", "obs-ep-task")}));
    core::register_store(store, /*overwrite=*/true);
    // One explicit root ties proxy creation, FaaS submit, relay forwards,
    // worker dispatch, and the remote resolve into a single trace.
    SpanScope root("test.round_trip");
    root_ctx = root.context();
    ASSERT_TRUE(root_ctx.valid());
    Proxy<Bytes> proxy = store->proxy(Bytes(4096, 'x'));
    faas::Executor executor(cloud, gc_endpoint.uuid());
    faas::TaskFuture future =
        executor.submit("obs-trace-task", serde::to_bytes(proxy));
    EXPECT_EQ(serde::from_bytes<std::uint64_t>(future.get()), 4096u);
  }
  gc_endpoint.stop();  // joins the worker threads: all spans are recorded
  recorder.set_enabled(false);

  const std::vector<SpanRecord> spans = recorder.spans();
  ASSERT_FALSE(spans.empty());

  std::set<std::string> trace_ids;
  std::set<std::string> sites;
  std::map<std::uint64_t, const SpanRecord*> by_span_id;
  std::map<std::string, int> name_counts;
  for (const SpanRecord& span : spans) {
    trace_ids.insert(span.ctx.trace_id_hex());
    sites.insert(span.site);
    EXPECT_TRUE(by_span_id.emplace(span.ctx.span_id, &span).second)
        << "duplicate span id for " << span.name;
    ++name_counts[span.name];
  }

  // Acceptance criterion: one trace id, spanning at least two simulated
  // sites, with the whole causal path present.
  EXPECT_EQ(trace_ids.size(), 1u);
  EXPECT_EQ(*trace_ids.begin(), root_ctx.trace_id_hex());
  EXPECT_GE(sites.size(), 2u);
  EXPECT_TRUE(sites.contains("alcf"));
  EXPECT_TRUE(sites.contains("uchicago"));
  for (const char* required :
       {"test.round_trip", "store.proxy", "faas.submit", "relay.forward",
        "faas.dispatch", "proxy.resolve", "faas.result"}) {
    EXPECT_GE(name_counts[required], 1) << "missing span " << required;
  }

  // Exactly one root; every other span's parent was itself recorded (no
  // orphans), so the trace forms a single tree.
  int roots = 0;
  for (const SpanRecord& span : spans) {
    if (span.ctx.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(span.name, "test.round_trip");
      continue;
    }
    const auto parent = by_span_id.find(span.ctx.parent_span_id);
    ASSERT_NE(parent, by_span_id.end()) << "orphan span " << span.name;
    EXPECT_EQ(parent->second->ctx.trace_id_hex(), span.ctx.trace_id_hex());
  }
  EXPECT_EQ(roots, 1);

  // Cross-boundary parent/child links: the worker-side dispatch span hangs
  // under the client-side submit span (context carried by the task record),
  // and the remote resolve under the proxy-creation span (context carried
  // by the factory descriptor).
  const auto parent_name = [&by_span_id](const SpanRecord& span) {
    const auto it = by_span_id.find(span.ctx.parent_span_id);
    return it == by_span_id.end() ? std::string() : it->second->name;
  };
  for (const SpanRecord& span : spans) {
    if (span.name == "faas.dispatch") {
      EXPECT_EQ(parent_name(span), "faas.submit");
      EXPECT_EQ(span.site, "uchicago");
    }
    if (span.name == "proxy.resolve") {
      EXPECT_EQ(parent_name(span), "store.proxy");
      EXPECT_EQ(span.site, "uchicago");
    }
    if (span.name == "faas.submit" || span.name == "store.proxy") {
      EXPECT_EQ(parent_name(span), "test.round_trip");
      EXPECT_EQ(span.site, "alcf");
    }
  }

  recorder.clear();
  core::unregister_store("obs-trace-faas");
}

TEST(PerfettoExport, EmittedFileParsesAsChromeTraceEvents) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  {
    SpanScope outer("export.outer", "subject-1");
    sim::vadvance(0.010);
    SpanScope inner("export.inner");
    inner.set_locality({"relay", "relay-host", "relay-site"});
    sim::vadvance(0.005);
  }
  recorder.set_enabled(false);
  ASSERT_EQ(recorder.span_count(), 2u);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ps_obs_trace_test.json")
          .string();
  ASSERT_TRUE(write_perfetto_trace(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(text, perfetto_trace_json(recorder));

  // Re-parse the emitted file: it must load as a Chrome trace-event JSON
  // object, the format ui.perfetto.dev and chrome://tracing open natively.
  JsonValue root = parse(text);
  EXPECT_EQ(root.at("displayTimeUnit").str(), "ms");
  const std::vector<JsonValue>& events = root.at("traceEvents").arr();
  std::size_t metadata = 0;
  std::size_t slices = 0;
  std::set<std::string> slice_names;
  std::set<double> pids;
  for (const JsonValue& event : events) {
    const std::string ph = event.at("ph").str();
    ASSERT_TRUE(ph == "M" || ph == "X") << "unexpected phase " << ph;
    EXPECT_TRUE(event.obj().contains("pid"));
    EXPECT_TRUE(event.obj().contains("name"));
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ++slices;
    pids.insert(event.at("pid").num());
    slice_names.insert(event.at("name").str());
    EXPECT_GE(event.at("ts").num(), 0.0);
    EXPECT_GE(event.at("dur").num(), 0.0);
    const JsonValue& args = event.at("args");
    EXPECT_EQ(args.at("trace_id").str().size(), 32u);
    EXPECT_GT(args.at("span_id").num(), 0.0);
    EXPECT_TRUE(args.obj().contains("parent_span_id"));
    EXPECT_TRUE(args.obj().contains("process"));
    EXPECT_TRUE(args.obj().contains("site"));
  }
  // Each span is emitted twice — a virtual-time slice and a wall-clock
  // slice — on distinct Perfetto "process" tracks.
  EXPECT_EQ(slices, 4u);
  EXPECT_EQ(slice_names, (std::set<std::string>{"export.outer",
                                                "export.inner"}));
  EXPECT_GE(pids.size(), 2u);
  // process_name + thread_name metadata exist for every track.
  EXPECT_GE(metadata, 4u);

  // The virtual-time slices carry the simulated durations (microseconds):
  // outer spans the full 15 ms, inner the nested 5 ms.
  double outer_vdur = 0.0;
  double inner_vdur = 0.0;
  for (const JsonValue& event : events) {
    if (event.at("ph").str() != "X") continue;
    if (event.at("pid").num() >= 1000) continue;  // wall-clock track
    const std::string name = event.at("name").str();
    if (name == "export.outer") outer_vdur = event.at("dur").num();
    if (name == "export.inner") inner_vdur = event.at("dur").num();
  }
  EXPECT_NEAR(outer_vdur, 15000.0, 1.0);
  EXPECT_NEAR(inner_vdur, 5000.0, 1.0);

  recorder.clear();
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- profiler ----

/// Synthetic span with explicit ids and times, all in one trace.
SpanRecord make_span(std::uint64_t span_id, std::uint64_t parent,
                     const std::string& name, double v0, double v1,
                     double w0, double w1) {
  SpanRecord span;
  span.ctx.trace_hi = 0x1;
  span.ctx.trace_lo = 0x2;
  span.ctx.span_id = span_id;
  span.ctx.parent_span_id = parent;
  span.name = name;
  span.vtime_start = v0;
  span.vtime_end = v1;
  span.wall_start = w0;
  span.wall_end = w1;
  return span;
}

TEST(Profile, AggregatesSpansIntoCallTreeWithSelfTimes) {
  // root(0..10) { a(1..4) { leaf(2..3) }, b(4..9) }, plus a second
  // invocation of the same shape so same-path spans merge.
  std::vector<SpanRecord> spans;
  spans.push_back(make_span(1, 0, "root", 0.0, 10.0, 0.0, 1.0));
  spans.push_back(make_span(2, 1, "a", 1.0, 4.0, 0.1, 0.4));
  spans.push_back(make_span(3, 2, "leaf", 2.0, 3.0, 0.2, 0.3));
  spans.push_back(make_span(4, 1, "b", 4.0, 9.0, 0.4, 0.9));
  spans.push_back(make_span(5, 0, "root", 10.0, 12.0, 1.0, 1.2));

  const Profile profile = Profile::from_spans(spans);
  ASSERT_EQ(profile.roots().size(), 1u);
  const ProfileNode& root = profile.roots()[0];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.count, 2u);
  EXPECT_NEAR(root.total_vtime_s, 12.0, 1e-12);
  // Self: 12 total minus children (a: 3, b: 5).
  EXPECT_NEAR(root.self_vtime_s, 4.0, 1e-12);
  ASSERT_EQ(root.children.size(), 2u);
  // Children sorted by total vtime descending: b (5) before a (3).
  EXPECT_EQ(root.children[0].name, "b");
  EXPECT_NEAR(root.children[0].self_vtime_s, 5.0, 1e-12);
  EXPECT_EQ(root.children[1].name, "a");
  EXPECT_NEAR(root.children[1].total_vtime_s, 3.0, 1e-12);
  EXPECT_NEAR(root.children[1].self_vtime_s, 2.0, 1e-12);
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "leaf");
  EXPECT_NEAR(profile.total_vtime_s(), 12.0, 1e-12);
  EXPECT_NEAR(profile.total_wall_s(), 1.2, 1e-12);

  // top_nodes is hottest-self-first and flattens paths.
  const auto top = profile.top_nodes(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].path, "root;b");
  EXPECT_NEAR(top[0].self_vtime_s, 5.0, 1e-12);
}

TEST(Profile, SelfTimeClampsForOverlappingAsyncChildren) {
  // Child charged more vtime than its parent (async continuation measured
  // on another virtual timeline): parent self clamps to zero instead of
  // going negative.
  std::vector<SpanRecord> spans;
  spans.push_back(make_span(1, 0, "submit", 0.0, 1.0, 0.0, 0.1));
  spans.push_back(make_span(2, 1, "dispatch", 0.0, 5.0, 0.0, 0.05));
  const Profile profile = Profile::from_spans(spans);
  ASSERT_EQ(profile.roots().size(), 1u);
  EXPECT_NEAR(profile.roots()[0].self_vtime_s, 0.0, 1e-12);
  EXPECT_NEAR(profile.roots()[0].children[0].self_vtime_s, 5.0, 1e-12);
}

TEST(Profile, FromRecorderAggregatesRealNestedSpanScopes) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    SpanScope root("prof.root");
    sim::vadvance(0.1);
    {
      SpanScope child("prof.child");
      sim::vadvance(0.2);
    }
    sim::vadvance(0.05);
  }
  recorder.set_enabled(false);

  const Profile profile = Profile::from_recorder(recorder);
  ASSERT_EQ(profile.roots().size(), 1u);
  const ProfileNode& root = profile.roots()[0];
  EXPECT_EQ(root.name, "prof.root");
  EXPECT_EQ(root.count, 3u);
  EXPECT_NEAR(root.total_vtime_s, 3 * 0.35, 1e-9);
  EXPECT_NEAR(root.self_vtime_s, 3 * 0.15, 1e-9);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_NEAR(root.children[0].total_vtime_s, 3 * 0.2, 1e-9);
  recorder.clear();
}

TEST(Profile, FoldedStacksRoundTripAndSelfSumsMatchRootTotals) {
  // Two distinct roots; properly nested, non-overlapping children, so the
  // per-root sum of self times must equal the root's total time exactly
  // (up to the integer-nanosecond rounding of the folded format).
  std::vector<SpanRecord> spans;
  spans.push_back(make_span(1, 0, "alpha", 0.0, 2.0, 0.0, 0.2));
  spans.push_back(make_span(2, 1, "x", 0.25, 1.0, 0.02, 0.1));
  spans.push_back(make_span(3, 1, "y", 1.0, 1.75, 0.1, 0.18));
  spans.push_back(make_span(4, 0, "beta", 2.0, 5.5, 0.2, 0.55));
  spans.push_back(make_span(5, 4, "x", 3.0, 4.25, 0.3, 0.42));
  const Profile profile = Profile::from_spans(spans);

  // Re-parse the folded output: "path;to;node <self-ns>" per line.
  std::map<std::string, double> root_self_sums;
  std::map<std::string, double> root_totals;
  for (const ProfileNode& root : profile.roots()) {
    root_totals[root.name] = root.total_vtime_s;
  }
  std::istringstream folded(profile.folded(/*vtime=*/true));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(folded, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string path = line.substr(0, space);
    const double self_ns = std::stod(line.substr(space + 1));
    EXPECT_GE(self_ns, 0.0);
    const std::string root_name = path.substr(0, path.find(';'));
    root_self_sums[root_name] += self_ns * 1e-9;
    ++lines;
  }
  EXPECT_EQ(lines, 5u);  // alpha, alpha;x, alpha;y, beta, beta;x

  ASSERT_EQ(root_self_sums.size(), 2u);
  for (const auto& [root_name, total] : root_totals) {
    ASSERT_TRUE(root_self_sums.contains(root_name)) << root_name;
    // Each folded line rounds to whole nanoseconds.
    EXPECT_NEAR(root_self_sums[root_name], total, 1e-8) << root_name;
  }
}

// ------------------------------------------------------- bench artifacts ----

BenchArtifact sample_artifact() {
  BenchArtifact artifact;
  artifact.bench = "unit_bench";
  artifact.seed = 42;
  artifact.git_rev = "abc123";
  SeriesStats vt;
  vt.count = 10;
  vt.mean_s = 0.5;
  vt.p50_s = 0.4;
  vt.p99_s = 0.9;
  vt.min_s = 0.1;
  vt.max_s = 1.0;
  vt.sum_s = 5.0;
  artifact.series["cell.vtime"] = vt;
  SeriesStats wall = vt;
  wall.kind = "wall";
  artifact.series["cell.wall"] = wall;
  ProfileEntry entry;
  entry.path = "root;child";
  entry.count = 3;
  entry.total_vtime_s = 1.5;
  entry.self_vtime_s = 0.5;
  entry.total_wall_s = 0.01;
  entry.self_wall_s = 0.005;
  artifact.profile_top.push_back(entry);
  return artifact;
}

TEST(BenchReport, ArtifactJsonRoundTrips) {
  const BenchArtifact artifact = sample_artifact();
  const std::string text = bench_artifact_json(artifact);

  std::string error;
  const auto parsed = parse_bench_artifact(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->schema_version, kBenchSchemaVersion);
  EXPECT_EQ(parsed->bench, "unit_bench");
  EXPECT_EQ(parsed->seed, 42u);
  EXPECT_EQ(parsed->git_rev, "abc123");
  ASSERT_EQ(parsed->series.size(), 2u);
  const SeriesStats& vt = parsed->series.at("cell.vtime");
  EXPECT_EQ(vt.count, 10u);
  EXPECT_NEAR(vt.mean_s, 0.5, 1e-12);
  EXPECT_NEAR(vt.p99_s, 0.9, 1e-12);
  EXPECT_EQ(vt.kind, "vtime");
  EXPECT_EQ(parsed->series.at("cell.wall").kind, "wall");
  ASSERT_EQ(parsed->profile_top.size(), 1u);
  EXPECT_EQ(parsed->profile_top[0].path, "root;child");
  EXPECT_EQ(parsed->profile_top[0].count, 3u);
  EXPECT_NEAR(parsed->profile_top[0].self_vtime_s, 0.5, 1e-12);
}

TEST(BenchReport, ParserRejectsMalformedArtifacts) {
  std::string error;
  EXPECT_FALSE(parse_bench_artifact("not json", &error).has_value());
  EXPECT_FALSE(parse_bench_artifact("{}", &error).has_value());

  // Wrong schema version must be rejected, not silently accepted.
  BenchArtifact artifact = sample_artifact();
  artifact.schema_version = kBenchSchemaVersion + 1;
  EXPECT_FALSE(
      parse_bench_artifact(bench_artifact_json(artifact), &error)
          .has_value());
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  // Unknown series kind is a schema violation too.
  artifact = sample_artifact();
  artifact.series["cell.vtime"].kind = "cpu";
  EXPECT_FALSE(
      parse_bench_artifact(bench_artifact_json(artifact), &error)
          .has_value());
}

TEST(BenchReport, CollectPullsRegisteredSeriesAndProfile) {
  auto& registry = MetricsRegistry::global();
  registry.histogram("collect.cell").observe(0.25);
  registry.histogram("collect.cell").observe(0.75);
  registry.histogram("collect.unregistered").observe(1.0);

  TraceRecorder& recorder = TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  {
    SpanScope root("collect.span");
    sim::vadvance(0.125);
  }
  recorder.set_enabled(false);

  std::map<std::string, SeriesMeta> meta;
  meta["collect.cell"] = SeriesMeta{"vtime", "s"};
  meta["collect.absent"] = SeriesMeta{"vtime", "s"};  // not in the registry
  const BenchArtifact artifact =
      collect_bench_artifact("collect_bench", 7, meta, 5);

  EXPECT_EQ(artifact.bench, "collect_bench");
  EXPECT_EQ(artifact.seed, 7u);
  EXPECT_FALSE(artifact.git_rev.empty());
  // Only the registered-and-populated series lands in the artifact: the
  // unregistered registry histogram and the absent name are both skipped.
  ASSERT_EQ(artifact.series.size(), 1u);
  const SeriesStats& stats = artifact.series.at("collect.cell");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_NEAR(stats.mean_s, 0.5, 1e-12);
  ASSERT_FALSE(artifact.profile_top.empty());
  EXPECT_EQ(artifact.profile_top[0].path, "collect.span");
  recorder.clear();
}

TEST(BenchDiff, IdenticalArtifactsPassAndVtimeDriftFails) {
  const BenchArtifact base = sample_artifact();

  const DiffResult same = diff_bench_artifacts(base, base);
  EXPECT_FALSE(same.failed);
  for (const SeriesDelta& delta : same.deltas) {
    EXPECT_EQ(delta.verdict, "ok") << delta.name;
  }

  // A deterministic vtime series that moved AT ALL is drift — in either
  // direction, however small beyond float formatting.
  for (const double factor : {2.0, 0.9}) {
    BenchArtifact cand = sample_artifact();
    cand.series["cell.vtime"].mean_s *= factor;
    const DiffResult result = diff_bench_artifacts(base, cand);
    EXPECT_TRUE(result.failed) << "factor " << factor;
    bool found = false;
    for (const SeriesDelta& delta : result.deltas) {
      if (delta.name == "cell.vtime") {
        EXPECT_EQ(delta.verdict, "drift");
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }

  // Changed repetition count on a vtime series is drift too.
  BenchArtifact cand = sample_artifact();
  cand.series["cell.vtime"].count = 11;
  EXPECT_TRUE(diff_bench_artifacts(base, cand).failed);
}

TEST(BenchDiff, WallSeriesGetToleranceAndSlowdownFails) {
  const BenchArtifact base = sample_artifact();

  // +20% wall noise is within the default 25% tolerance.
  BenchArtifact noisy = sample_artifact();
  noisy.series["cell.wall"].mean_s *= 1.2;
  EXPECT_FALSE(diff_bench_artifacts(base, noisy).failed);

  // A 2x wall slowdown is a regression.
  BenchArtifact slow = sample_artifact();
  slow.series["cell.wall"].mean_s *= 2.0;
  const DiffResult result = diff_bench_artifacts(base, slow);
  EXPECT_TRUE(result.failed);
  bool found = false;
  for (const SeriesDelta& delta : result.deltas) {
    if (delta.name == "cell.wall") {
      EXPECT_EQ(delta.verdict, "regression");
      EXPECT_NEAR(delta.rel_delta, 1.0, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // ...unless the caller widens the tolerance.
  DiffOptions loose;
  loose.wall_rel_tol = 3.0;
  EXPECT_FALSE(diff_bench_artifacts(base, slow, loose).failed);

  // Wall improvements never fail.
  BenchArtifact fast = sample_artifact();
  fast.series["cell.wall"].mean_s *= 0.25;
  EXPECT_FALSE(diff_bench_artifacts(base, fast).failed);
}

TEST(BenchDiff, MissingSeriesFailsAndNewSeriesInforms) {
  const BenchArtifact base = sample_artifact();

  BenchArtifact missing = sample_artifact();
  missing.series.erase("cell.vtime");
  const DiffResult gone = diff_bench_artifacts(base, missing);
  EXPECT_TRUE(gone.failed);

  BenchArtifact extra = sample_artifact();
  SeriesStats added;
  added.count = 1;
  added.mean_s = 1.0;
  extra.series["cell.added"] = added;
  const DiffResult result = diff_bench_artifacts(base, extra);
  EXPECT_FALSE(result.failed);  // new series are informational
  bool found = false;
  for (const SeriesDelta& delta : result.deltas) {
    if (delta.name == "cell.added") {
      EXPECT_EQ(delta.verdict, "new");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchReport, SloVerdictsRoundTripAndV1ArtifactsStillParse) {
  BenchArtifact artifact = sample_artifact();
  artifact.series["cell.vtime"].p999_s = 0.95;
  SloResult slo;
  slo.name = "cell.p999";
  slo.metric = "cell.vtime";
  slo.percentile = "p999";
  slo.threshold_s = 1.0;
  slo.min_samples = 8;
  slo.status = "pass";
  slo.observed_s = 0.95;
  slo.samples = 10;
  artifact.slos.push_back(slo);

  std::string error;
  const auto parsed =
      parse_bench_artifact(bench_artifact_json(artifact), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_NEAR(parsed->series.at("cell.vtime").p999_s, 0.95, 1e-12);
  ASSERT_EQ(parsed->slos.size(), 1u);
  EXPECT_EQ(parsed->slos[0].name, "cell.p999");
  EXPECT_EQ(parsed->slos[0].percentile, "p999");
  EXPECT_EQ(parsed->slos[0].status, "pass");
  EXPECT_NEAR(parsed->slos[0].threshold_s, 1.0, 1e-12);
  EXPECT_EQ(parsed->slos[0].min_samples, 8u);
  EXPECT_EQ(parsed->slos[0].samples, 10u);

  // A v1 artifact (no p999_s column, no slos section) still parses:
  // p999_s falls back to p99_s, slos stay empty.
  const std::string v1 =
      "{\"schema_version\":1,\"bench\":\"old\",\"seed\":7,"
      "\"git_rev\":\"abc\",\"series\":{\"cell.vtime\":{\"count\":2,"
      "\"mean_s\":0.5,\"p50_s\":0.4,\"p99_s\":0.9,\"min_s\":0.1,"
      "\"max_s\":1.0,\"sum_s\":1.0,\"units\":\"s\",\"kind\":\"vtime\"}},"
      "\"profile_top\":[]}";
  const auto old = parse_bench_artifact(v1, &error);
  ASSERT_TRUE(old.has_value()) << error;
  EXPECT_EQ(old->schema_version, 1);
  EXPECT_NEAR(old->series.at("cell.vtime").p999_s, 0.9, 1e-12);
  EXPECT_TRUE(old->slos.empty());

  // A v2 artifact without the slos array is malformed...
  const std::string v2_missing =
      "{\"schema_version\":2,\"bench\":\"b\",\"seed\":1,\"git_rev\":\"x\","
      "\"series\":{},\"profile_top\":[]}";
  EXPECT_FALSE(parse_bench_artifact(v2_missing, &error).has_value());
  EXPECT_NE(error.find("slos"), std::string::npos) << error;

  // ...and an unknown verdict status is a schema violation.
  artifact.slos[0].status = "maybe";
  EXPECT_FALSE(parse_bench_artifact(bench_artifact_json(artifact), &error)
                   .has_value());
}

TEST(BenchReport, V3AttributionRoundTripsAndV2ArtifactsStillParse) {
  BenchArtifact artifact = sample_artifact();
  SeriesAttribution attr;
  attr.trace_id = "70733a74726163650000000000000001";
  attr.span_id = 42;
  attr.sample_s = 0.9;
  attr.attributed_s = 0.9;
  attr.segments.push_back(SegmentShare{"wire-transfer", 0.6, 3});
  attr.segments.push_back(SegmentShare{"client", 0.3, 1});
  artifact.series["cell.vtime"].attribution = attr;

  const std::string text = bench_artifact_json(artifact);
  EXPECT_NE(text.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(text.find("\"attribution\":{\"trace_id\":"), std::string::npos);

  std::string error;
  const auto parsed = parse_bench_artifact(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& got = parsed->series.at("cell.vtime").attribution;
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->trace_id, attr.trace_id);
  EXPECT_EQ(got->span_id, 42u);
  EXPECT_NEAR(got->sample_s, 0.9, 1e-12);
  EXPECT_NEAR(got->attributed_s, 0.9, 1e-12);
  ASSERT_EQ(got->segments.size(), 2u);
  EXPECT_EQ(got->segments[0].segment, "wire-transfer");
  EXPECT_NEAR(got->segments[0].vtime_s, 0.6, 1e-12);
  EXPECT_EQ(got->segments[0].spans, 3u);
  // Attribution is per-series: the others stay absent.
  EXPECT_FALSE(parsed->series.at("cell.wall").attribution.has_value());

  // Series diffing ignores the attribution block entirely (trace ids are
  // run-local): identical stats with different attributions still pass.
  BenchArtifact cand = sample_artifact();
  EXPECT_FALSE(diff_bench_artifacts(artifact, cand).failed);

  // A v2 artifact (p999 + slos but no attribution) still parses...
  const std::string v2 =
      "{\"schema_version\":2,\"bench\":\"old\",\"seed\":7,"
      "\"git_rev\":\"abc\",\"series\":{\"cell.vtime\":{\"count\":2,"
      "\"mean_s\":0.5,\"p50_s\":0.4,\"p99_s\":0.9,\"p999_s\":0.95,"
      "\"min_s\":0.1,\"max_s\":1.0,\"sum_s\":1.0,\"units\":\"s\","
      "\"kind\":\"vtime\"}},\"slos\":[],\"profile_top\":[]}";
  const auto old = parse_bench_artifact(v2, &error);
  ASSERT_TRUE(old.has_value()) << error;
  EXPECT_EQ(old->schema_version, 2);
  EXPECT_FALSE(old->series.at("cell.vtime").attribution.has_value());

  // ...and a malformed v3 attribution (bad trace id, empty segments) is a
  // schema violation, not silently accepted.
  BenchArtifact bad = sample_artifact();
  bad.series["cell.vtime"].attribution = attr;
  bad.series["cell.vtime"].attribution->trace_id = "short";
  EXPECT_FALSE(
      parse_bench_artifact(bench_artifact_json(bad), &error).has_value());
  bad.series["cell.vtime"].attribution = attr;
  bad.series["cell.vtime"].attribution->segments.clear();
  EXPECT_FALSE(
      parse_bench_artifact(bench_artifact_json(bad), &error).has_value());
}

TEST(BenchDiff, CandidateSloBreachFailsIndependentOfSeriesDrift) {
  const BenchArtifact base = sample_artifact();

  SloResult breach;
  breach.name = "cell.p99";
  breach.metric = "cell.vtime";
  breach.percentile = "p99";
  breach.threshold_s = 0.5;
  breach.status = "breach";
  breach.observed_s = 0.9;
  breach.samples = 10;

  // Identical series, but the candidate carries a breach: the gate fails.
  BenchArtifact cand = sample_artifact();
  cand.slos.push_back(breach);
  const DiffResult result = diff_bench_artifacts(base, cand);
  EXPECT_TRUE(result.failed);
  ASSERT_EQ(result.slo_breaches.size(), 1u);
  EXPECT_EQ(result.slo_breaches[0].name, "cell.p99");
  for (const SeriesDelta& delta : result.deltas) {
    EXPECT_EQ(delta.verdict, "ok") << delta.name;  // no series drift
  }

  // Pass and insufficient-data verdicts never fail the gate.
  BenchArtifact healthy = sample_artifact();
  SloResult pass = breach;
  pass.status = "pass";
  pass.observed_s = 0.3;
  SloResult scarce = breach;
  scarce.name = "cell.scarce";
  scarce.status = "insufficient_data";
  healthy.slos = {pass, scarce};
  EXPECT_FALSE(diff_bench_artifacts(base, healthy).failed);

  // A breach recorded in the BASELINE does not fail a clean candidate —
  // the gate judges the run under test, not history.
  BenchArtifact old_breach = sample_artifact();
  old_breach.slos.push_back(breach);
  EXPECT_FALSE(diff_bench_artifacts(old_breach, sample_artifact()).failed);
}

TEST(BenchReport, WriteAndReadArtifactFile) {
  const BenchArtifact artifact = sample_artifact();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "ps_obs_artifact_test.json";
  ASSERT_TRUE(write_bench_artifact(path.string(), artifact));
  std::string error;
  const auto read = read_bench_artifact(path.string(), &error);
  ASSERT_TRUE(read.has_value()) << error;
  EXPECT_EQ(read->bench, artifact.bench);
  std::filesystem::remove(path);

  EXPECT_FALSE(read_bench_artifact("/no/such/dir/file.json", &error)
                   .has_value());
}

// ------------------------------------------- prometheus conformance --------

TEST(PrometheusExport, ConformsToTextExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("conf.ops").inc(3);
  registry.gauge("conf.depth").set(2.5);
  auto& h = registry.histogram("conf.latency");
  h.observe(1e-6);
  h.observe(1e-3);
  h.observe(0.5);

  const std::string text = prometheus_text(registry);
  std::istringstream lines(text);
  std::string line;
  std::map<std::string, std::string> help;  // metric -> HELP line
  std::map<std::string, std::string> type;  // metric -> declared type
  std::vector<std::pair<double, std::uint64_t>> buckets;  // le -> count
  std::uint64_t inf_count = 0;
  bool saw_inf = false;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      help[rest.substr(0, rest.find(' '))] = rest;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      const std::string name = rest.substr(0, space);
      type[name] = rest.substr(space + 1);
      // HELP must precede TYPE for the same metric family.
      EXPECT_TRUE(help.contains(name)) << name;
      continue;
    }
    if (line.rfind("ps_conf_latency_seconds_bucket{le=\"", 0) == 0) {
      const std::size_t open = line.find('"') + 1;
      const std::size_t close = line.find('"', open);
      const std::string le = line.substr(open, close - open);
      const std::uint64_t n =
          std::stoull(line.substr(line.rfind(' ') + 1));
      if (le == "+Inf") {
        saw_inf = true;
        inf_count = n;
      } else {
        buckets.emplace_back(std::stod(le), n);
      }
    }
  }

  // Counters carry _total; every family declares HELP + TYPE.
  EXPECT_TRUE(type.contains("ps_conf_ops_total"));
  EXPECT_EQ(type["ps_conf_ops_total"], "counter");
  EXPECT_EQ(type["ps_conf_depth"], "gauge");
  EXPECT_EQ(type["ps_conf_latency_seconds"], "histogram");
  for (const auto& [name, declared] : type) {
    EXPECT_TRUE(help.contains(name)) << name;
  }
  EXPECT_NE(text.find("ps_conf_ops_total 3\n"), std::string::npos);

  // Histogram buckets are cumulative (non-decreasing in le order) and end
  // with +Inf == observation count.
  ASSERT_TRUE(saw_inf);
  EXPECT_EQ(inf_count, 3u);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i].first, buckets[i - 1].first);
    EXPECT_GE(buckets[i].second, buckets[i - 1].second);
  }
  if (!buckets.empty()) {
    EXPECT_LE(buckets.back().second, inf_count);
  }
  EXPECT_NE(text.find("ps_conf_latency_seconds_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ps_conf_latency_seconds_sum "), std::string::npos);
}

TEST(PrometheusExport, SummaryQuantileFamilyConforms) {
  MetricsRegistry registry;
  auto& h = registry.histogram("conf.latency");
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-4);

  const std::string text = prometheus_text(registry);
  // The quantile exposition is its own summary family (mixing quantile
  // labels into the histogram family would violate one-TYPE-per-family).
  EXPECT_NE(text.find("# TYPE ps_conf_latency_quantiles_seconds summary"),
            std::string::npos);
  const std::size_t help =
      text.find("# HELP ps_conf_latency_quantiles_seconds ");
  ASSERT_NE(help, std::string::npos);
  EXPECT_LT(help, text.find("# TYPE ps_conf_latency_quantiles_seconds"));

  const auto quantile_value = [&text](const std::string& q) {
    const std::string needle =
        "ps_conf_latency_quantiles_seconds{quantile=\"" + q + "\"} ";
    const std::size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << q;
    return std::stod(text.substr(pos + needle.size()));
  };
  const double p50 = quantile_value("0.5");
  const double p99 = quantile_value("0.99");
  const double p999 = quantile_value("0.999");
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_NEAR(p999, h.p999(), 1e-12);
  EXPECT_NE(text.find("ps_conf_latency_quantiles_seconds_count 1000\n"),
            std::string::npos);
  EXPECT_NE(text.find("ps_conf_latency_quantiles_seconds_sum "),
            std::string::npos);
}

// ------------------------------------------------------------ quantiles ----

TEST(HistogramQuantiles, P999AndQuantileTrackPercentileAndExportInJson) {
  MetricsRegistry registry;
  auto& h = registry.histogram("quant.lat");
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-3);

  EXPECT_DOUBLE_EQ(h.p999(), h.percentile(99.9));
  EXPECT_DOUBLE_EQ(h.p50(), h.percentile(50.0));
  // 1000 samples fit the reservoir, so the quantiles are exact.
  EXPECT_NEAR(h.p999(), 0.999, 2e-3);
  EXPECT_GE(h.p999(), h.percentile(99.0));

  const JsonValue root = parse(registry.dump_json());
  const JsonValue& hist = root.at("histograms").at("quant.lat");
  ASSERT_TRUE(hist.obj().contains("p999_s"));
  EXPECT_NEAR(hist.at("p999_s").num(), h.p999(), 1e-9);
  EXPECT_GE(hist.at("p999_s").num(), hist.at("p99_s").num());
}

// ------------------------------------------------------------------- slo ----

TEST(Slo, DeclareValidatesReplacesAndRemoves) {
  SloRegistry slos;
  slos.declare({"a.p99", "metric.a", "p99", 0.1, 8});
  EXPECT_EQ(slos.size(), 1u);

  // Replacement is by name, not accumulation.
  slos.declare({"a.p99", "metric.a", "p999", 0.2, 8});
  ASSERT_EQ(slos.size(), 1u);
  EXPECT_EQ(slos.objectives()[0].percentile, "p999");
  EXPECT_DOUBLE_EQ(slos.objectives()[0].threshold_s, 0.2);

  EXPECT_THROW(slos.declare({"", "m", "p99", 0.1, 1}), Error);
  EXPECT_THROW(slos.declare({"n", "", "p99", 0.1, 1}), Error);
  EXPECT_THROW(slos.declare({"n", "m", "p95", 0.1, 1}), Error);
  EXPECT_THROW(slos.declare({"n", "m", "p99", 0.0, 1}), Error);
  EXPECT_EQ(slos.size(), 1u);

  EXPECT_TRUE(slos.remove("a.p99"));
  EXPECT_FALSE(slos.remove("a.p99"));
  EXPECT_EQ(slos.size(), 0u);

  EXPECT_TRUE(valid_slo_percentile("p50"));
  EXPECT_TRUE(valid_slo_percentile("p999"));
  EXPECT_FALSE(valid_slo_percentile("p95"));
}

TEST(Slo, EvaluateProducesPassBreachAndInsufficientVerdicts) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i) registry.histogram("slo.fast").observe(1e-3);
  for (int i = 0; i < 100; ++i) registry.histogram("slo.slow").observe(0.2);
  for (int i = 0; i < 3; ++i) registry.histogram("slo.scarce").observe(1e-3);

  SloRegistry slos;
  slos.declare({"fast.p99", "slo.fast", "p99", 0.010, 10});
  slos.declare({"slow.p99", "slo.slow", "p99", 0.010, 10});
  slos.declare({"scarce.p999", "slo.scarce", "p999", 0.010, 10});
  slos.declare({"absent.p50", "slo.absent", "p50", 0.010, 1});

  const SloReport report = slos.evaluate(registry);
  ASSERT_EQ(report.verdicts.size(), 4u);
  EXPECT_EQ(report.verdicts[0].status, SloStatus::kPass);
  EXPECT_NEAR(report.verdicts[0].observed_s, 1e-3, 1e-4);
  EXPECT_EQ(report.verdicts[0].samples, 100u);
  EXPECT_EQ(report.verdicts[1].status, SloStatus::kBreach);
  EXPECT_GT(report.verdicts[1].observed_s, 0.010);
  EXPECT_EQ(report.verdicts[2].status, SloStatus::kInsufficientData);
  EXPECT_EQ(report.verdicts[2].samples, 3u);
  EXPECT_EQ(report.verdicts[3].status, SloStatus::kInsufficientData);
  EXPECT_EQ(report.verdicts[3].samples, 0u);

  EXPECT_EQ(report.breaches(), 1u);
  EXPECT_EQ(report.insufficient(), 2u);
  EXPECT_FALSE(report.passed());

  const std::string table = report.table();
  EXPECT_NE(table.find("slow.p99"), std::string::npos);
  EXPECT_NE(table.find("breach"), std::string::npos);
  EXPECT_NE(table.find("insufficient"), std::string::npos);

  const JsonValue root = parse(slo_report_json(report));
  EXPECT_EQ(root.at("breaches").num(), 1.0);
  EXPECT_EQ(root.at("passed").num(), 0.0);
  ASSERT_EQ(root.at("slos").arr().size(), 4u);
  EXPECT_EQ(root.at("slos").arr()[1].at("status").str(),
            "breach");
}

TEST(Slo, CollectEmbedsGlobalRegistryVerdictsInArtifact) {
  SloRegistry::global().clear();
  auto& h = MetricsRegistry::global().histogram("slo.collect.lat");
  for (int i = 0; i < 20; ++i) h.observe(1e-3);
  SloRegistry::global().declare(
      {"slo.collect.p99", "slo.collect.lat", "p99", 0.010, 10});

  const BenchArtifact artifact =
      collect_bench_artifact("slo_bench", 1, {}, 0);
  ASSERT_EQ(artifact.slos.size(), 1u);
  EXPECT_EQ(artifact.slos[0].name, "slo.collect.p99");
  EXPECT_EQ(artifact.slos[0].status, "pass");
  EXPECT_EQ(artifact.slos[0].samples, 20u);
  SloRegistry::global().clear();
}

// ------------------------------------------------- histogram exemplars -----

TEST(HistogramExemplars, RequireContextAndMaxValueWinsPerBucket) {
  Histogram h;
  // No active trace context: observations never mint exemplars, so the
  // histogram exports exactly as before the feature existed.
  h.observe(1e-3);
  h.observe(0.5);
  EXPECT_TRUE(h.exemplars().empty());
  EXPECT_FALSE(h.max_exemplar().valid());

  const TraceContext ctx = new_root_context();
  {
    ContextScope scope(ctx);
    h.observe(1.1e-3);  // same bucket as 1e-3
    h.observe(1.2e-3);  // larger: replaces
    h.observe(1.05e-3);  // smaller: rejected by the lock-free gate
    h.observe(0.7);      // a different bucket gets its own exemplar
  }
  const auto exemplars = h.exemplars();
  ASSERT_EQ(exemplars.size(), 2u);
  EXPECT_NEAR(exemplars[0].value_s, 1.2e-3, 1e-12);
  EXPECT_NEAR(exemplars[1].value_s, 0.7, 1e-12);
  for (const Exemplar& ex : exemplars) {
    EXPECT_EQ(ex.bucket, Histogram::bucket_index(ex.value_s));
    EXPECT_EQ(ex.trace_hi, ctx.trace_hi);
    EXPECT_EQ(ex.trace_lo, ctx.trace_lo);
    EXPECT_EQ(ex.span_id, ctx.span_id);
    EXPECT_EQ(ex.trace_id_hex().size(), 32u);
  }
  const Exemplar best = h.max_exemplar();
  ASSERT_TRUE(best.valid());
  EXPECT_NEAR(best.value_s, 0.7, 1e-12);

  h.reset();
  EXPECT_TRUE(h.exemplars().empty());
  EXPECT_FALSE(h.max_exemplar().valid());
}

TEST(HistogramExemplars, DumpJsonSchemaV3CarriesExemplars) {
  MetricsRegistry registry;
  auto& h = registry.histogram("ex.lat");
  {
    ContextScope scope(new_root_context());
    h.observe(2e-3);
  }
  const JsonValue root = parse(registry.dump_json());
  EXPECT_EQ(root.at("schema_version").num(), 3.0);
  const JsonValue& hist = root.at("histograms").at("ex.lat");
  ASSERT_TRUE(hist.obj().contains("exemplars"));
  ASSERT_EQ(hist.at("exemplars").arr().size(), 1u);
  const JsonValue& ex = hist.at("exemplars").arr()[0];
  EXPECT_NEAR(ex.at("value_s").num(), 2e-3, 1e-12);
  EXPECT_EQ(ex.at("trace_id").str().size(), 32u);
  EXPECT_GT(ex.at("span_id").num(), 0.0);

  // An exemplar-free histogram still emits the (empty) array.
  registry.histogram("ex.bare").observe(1e-3);
  const JsonValue root2 = parse(registry.dump_json());
  EXPECT_TRUE(root2.at("histograms").at("ex.bare").at("exemplars")
                  .arr().empty());
}

TEST(PrometheusExport, ExemplarAnnotationsRideOnBucketLines) {
  MetricsRegistry registry;
  auto& h = registry.histogram("ex.lat");
  const TraceContext ctx = new_root_context();
  {
    ContextScope scope(ctx);
    h.observe(2e-3);
  }
  h.observe(0.9);  // no context: this bucket gets no annotation

  const std::string text = prometheus_text(registry);
  const std::string needle = "# {trace_id=\"" + ctx.trace_id_hex() +
                             "\",span_id=\"" + std::to_string(ctx.span_id) +
                             "\"} 0.002";
  EXPECT_NE(text.find(needle), std::string::npos) << text;
  // Exactly one bucket line is annotated — the context-free observation
  // must not grow one.
  std::size_t annotations = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(" # {trace_id=") != std::string::npos) {
      ++annotations;
      EXPECT_NE(line.find("_bucket{le=\""), std::string::npos) << line;
    }
  }
  EXPECT_EQ(annotations, 1u);
}

TEST(PrometheusExport, LabelValuesEscapeBackslashQuoteNewline) {
  EXPECT_EQ(prom_label_escape("plain"), "plain");
  EXPECT_EQ(prom_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_label_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prom_label_escape("line\nbreak"), "line\\nbreak");

  // A hostile objective name must come out escaped in the SLO exposition
  // (and must not smuggle a raw newline into the middle of a sample line).
  MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) registry.histogram("evil.lat").observe(1e-3);
  SloRegistry slos;
  slos.declare({"evil\"name\\with\nnewline", "evil.lat", "p99", 0.010, 10});
  const std::string text = slo_prometheus_text(slos.evaluate(registry));
  EXPECT_NE(
      text.find(
          "ps_slo_status{objective=\"evil\\\"name\\\\with\\nnewline\"} 0"),
      std::string::npos)
      << text;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Every sample line is complete: name{labels} value.
    EXPECT_NE(line.find("} "), std::string::npos) << line;
  }
}

TEST(PrometheusExport, HelpTextEscapesBackslashAndNewline) {
  // A metric name with a backslash and a newline must not split a HELP
  // line: each family keeps exactly one HELP line, quoting the escaped
  // name, and every other line is a TYPE line or a sample.
  const std::string name = "evil\\name\nnext";
  MetricsRegistry registry;
  registry.counter(name).inc();
  registry.gauge(name).set(1.0);
  registry.histogram(name).observe(1e-3);
  const RegistrySnapshot snap = registry.take_snapshot(0.0);
  for (const std::string& text :
       {prometheus_text(registry),
        federated_prometheus_text({{"site-a", snap}})}) {
    std::map<std::string, int> help;  // family -> HELP lines
    std::set<std::string> families;   // from TYPE lines
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        ++help[rest.substr(0, rest.find(' '))];
        EXPECT_NE(line.find(" evil\\\\name\\nnext"), std::string::npos)
            << line;
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        families.insert(rest.substr(0, rest.find(' ')));
      } else if (line != "# EOF") {
        EXPECT_EQ(line.rfind("ps_evil_name_next", 0), 0u) << line;
      }
    }
    // Counter, gauge, histogram and its quantile summary.
    EXPECT_EQ(families.size(), 4u) << text;
    for (const std::string& family : families) {
      EXPECT_EQ(help[family], 1) << family;
    }
    EXPECT_EQ(help.size(), families.size()) << text;
  }
}

// ---------------------------------------------------- critical path --------

SpanRecord make_span(const TraceContext& ctx, std::string name,
                     std::string kind, double start, double end) {
  SpanRecord span;
  span.ctx = ctx;
  span.name = std::move(name);
  span.kind = std::move(kind);
  span.process = "test";
  span.host = "host";
  span.site = "site";
  span.vtime_start = start;
  span.vtime_end = end;
  span.wall_start = start;
  span.wall_end = end;
  return span;
}

TEST(CriticalPath, SegmentKindExplicitThenNameFallback) {
  SpanRecord s = make_span(new_root_context(), "anything", "serde", 0, 1);
  EXPECT_EQ(segment_kind(s), "serde");  // explicit kind wins
  s.kind.clear();
  s.name = "connector.redis.get";
  EXPECT_EQ(segment_kind(s), "wire-transfer");
  s.name = "endpoint.forward";
  EXPECT_EQ(segment_kind(s), "wire-transfer");
  s.name = "store.deserialize";
  EXPECT_EQ(segment_kind(s), "serde");
  s.name = "store.cache.probe";
  EXPECT_EQ(segment_kind(s), "cache-probe");
  s.name = "stream.poll";
  EXPECT_EQ(segment_kind(s), "broker-poll");
  s.name = "async.executor.queue";
  EXPECT_EQ(segment_kind(s), "executor-queue");
  s.name = "faas.dispatch";
  EXPECT_EQ(segment_kind(s), "dispatch");
  s.name = "mystery";
  EXPECT_EQ(segment_kind(s), "other");
}

TEST(CriticalPath, SegmentsSumExactlyToRootWindow) {
  // root [0, 10] (client)
  //   wire  [1, 4]  (wire-transfer)
  //     queue [2, 3] (executor-queue)
  //   serde [5, 6]  (classified by name)
  const TraceContext root = new_root_context();
  const TraceContext wire = child_of(root);
  const TraceContext queue = child_of(wire);
  const TraceContext serde = child_of(root);
  const CriticalPath cp = CriticalPath::from_spans({
      make_span(root, "fleet.op", "client", 0.0, 10.0),
      make_span(wire, "connector.kv.get", "wire-transfer", 1.0, 4.0),
      make_span(queue, "async.executor.queue", "executor-queue", 2.0, 3.0),
      make_span(serde, "store.deserialize", "", 5.0, 6.0),
  });
  ASSERT_EQ(cp.reports().size(), 1u);
  const CriticalPathReport& report = cp.reports()[0];
  EXPECT_EQ(report.trace_id, root.trace_id_hex());
  EXPECT_EQ(report.root_name, "fleet.op");
  EXPECT_EQ(report.span_count, 4u);
  EXPECT_DOUBLE_EQ(report.vtime_s, 10.0);
  EXPECT_DOUBLE_EQ(report.attributed_s, 10.0);  // the exact-sum invariant

  std::map<std::string, double> shares;
  for (const SegmentShare& s : report.segments) {
    shares[s.segment] = s.vtime_s;
  }
  // client: gaps [0,1) + [4,5) + [6,10] = 6; wire: [1,2) + [3,4) = 2.
  EXPECT_DOUBLE_EQ(shares.at("client"), 6.0);
  EXPECT_DOUBLE_EQ(shares.at("wire-transfer"), 2.0);
  EXPECT_DOUBLE_EQ(shares.at("executor-queue"), 1.0);
  EXPECT_DOUBLE_EQ(shares.at("serde"), 1.0);
  // Largest share first.
  EXPECT_EQ(report.segments[0].segment, "client");

  // table() and json() render every segment.
  const std::string table = CriticalPath::table(cp.reports());
  EXPECT_NE(table.find("wire-transfer"), std::string::npos);
  const JsonValue parsed = parse(CriticalPath::json(cp.top(5)));
  ASSERT_EQ(parsed.at("critical_paths").arr().size(), 1u);
  EXPECT_DOUBLE_EQ(
      parsed.at("critical_paths").arr()[0].at("attributed_s").num(), 10.0);
}

TEST(CriticalPath, OverlappingChildrenClipAndForSpanRequiresRoot) {
  const TraceContext root = new_root_context();
  const TraceContext a = child_of(root);
  const TraceContext b = child_of(root);
  const CriticalPath cp = CriticalPath::from_spans({
      make_span(root, "root.op", "client", 0.0, 10.0),
      make_span(a, "connector.a.get", "wire-transfer", 1.0, 5.0),
      // Overlaps its sibling: only the [5, 8] remainder may be credited,
      // or the sum would exceed the window.
      make_span(b, "store.deserialize", "serde", 3.0, 8.0),
  });
  ASSERT_EQ(cp.reports().size(), 1u);
  const CriticalPathReport& report = cp.reports()[0];
  EXPECT_DOUBLE_EQ(report.attributed_s, 10.0);
  std::map<std::string, double> shares;
  for (const SegmentShare& s : report.segments) {
    shares[s.segment] = s.vtime_s;
  }
  EXPECT_DOUBLE_EQ(shares.at("wire-transfer"), 4.0);  // [1, 5]
  EXPECT_DOUBLE_EQ(shares.at("serde"), 3.0);          // clipped to [5, 8]
  EXPECT_DOUBLE_EQ(shares.at("client"), 3.0);         // [0,1) + [8,10]

  // for_span decomposes an inner hop on demand...
  const auto inner = cp.for_span(a.trace_hi, a.trace_lo, a.span_id);
  ASSERT_TRUE(inner.has_value());
  EXPECT_DOUBLE_EQ(inner->vtime_s, 4.0);
  // ...but not under require_root (the exemplar-attribution rule: only a
  // whole measured window may explain a series sample).
  EXPECT_FALSE(cp.for_span(a.trace_hi, a.trace_lo, a.span_id,
                           /*require_root=*/true)
                   .has_value());
  EXPECT_TRUE(cp.for_span(root.trace_hi, root.trace_lo, root.span_id,
                          /*require_root=*/true)
                  .has_value());
  EXPECT_FALSE(cp.for_span(root.trace_hi, root.trace_lo, 0xdead).has_value());
}

// ---------------------------------------------------- flight recorder ------

TEST(FlightRecorder, SnapshotHoldsOnlyTheSpansLeftAfterTraceClear) {
  // The flight recorder keeps no ring of its own: a snapshot is the trace
  // ring as it stands, so spans cleared from the trace are gone from it.
  TraceRecorder& trace = TraceRecorder::global();
  FlightRecorder& flight = FlightRecorder::global();
  trace.clear();
  flight.clear();
  trace.set_enabled(true);
  const TraceContext ctx = new_root_context();
  for (int i = 0; i < 3; ++i) {
    trace.record_span(make_span(ctx, "before.clear", "client", 0.0, 1.0));
  }
  trace.clear();
  trace.record_span(make_span(ctx, "after.clear", "client", 1.0, 2.0));
  const FlightRecorder::Snapshot snap = flight.snapshot("after-clear");
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "after.clear");
  trace.set_enabled(false);
  trace.clear();
  flight.clear();
}

TEST(FlightRecorder, SnapshotRetentionAndPerfettoLoadableDump) {
  TraceRecorder trace;
  trace.set_enabled(true);
  FlightRecorder flight(trace);
  const TraceContext ctx = new_root_context();
  trace.record_span(make_span(ctx, "flight.op", "client", 0.5, 2.5));
  EXPECT_FALSE(flight.has_snapshot());

  // latest_or_live falls back to a live capture without retaining it.
  EXPECT_EQ(flight.latest_or_live().reason, "live");
  EXPECT_FALSE(flight.has_snapshot());

  for (int i = 0; i < 6; ++i) {
    flight.snapshot("snap-" + std::to_string(i));
  }
  EXPECT_TRUE(flight.has_snapshot());
  const auto snaps = flight.snapshots();
  ASSERT_EQ(snaps.size(), FlightRecorder::kMaxSnapshots);
  EXPECT_EQ(snaps.front().reason, "snap-2");  // oldest rolled out
  EXPECT_EQ(snaps.back().reason, "snap-5");
  EXPECT_EQ(flight.latest_or_live().reason, "snap-5");

  // The dump is one JSON document: Chrome-trace traceEvents plus the
  // "flight" header, and it must re-parse.
  const FlightRecorder::Snapshot snap = flight.latest_or_live();
  const std::string dump = FlightRecorder::dump_json(snap);
  const JsonValue root = parse(dump);
  EXPECT_EQ(root.at("flight").at("reason").str(),
            "snap-5");
  EXPECT_EQ(root.at("flight").at("span_count").num(), 1.0);
  bool saw_complete_event = false;
  for (const JsonValue& event : root.at("traceEvents").arr()) {
    if (event.at("ph").str() == "X") {
      saw_complete_event = true;
    }
  }
  EXPECT_TRUE(saw_complete_event);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "ps_obs_flight_test.json";
  ASSERT_TRUE(FlightRecorder::dump(path.string(), snap));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), dump);
  std::filesystem::remove(path);
}

TEST(LatencyWatchdog, LatchedThresholdCrossingFreezesFlightRecorder) {
  TraceRecorder& trace = TraceRecorder::global();
  FlightRecorder& flight = FlightRecorder::global();
  trace.clear();
  flight.clear();
  trace.set_enabled(true);
  trace.record_span(
      make_span(new_root_context(), "dog.op", "client", 0.0, 0.25));
  LatencyWatchdog& watchdog = LatencyWatchdog::global();
  watchdog.clear();

  MetricsRegistry registry;
  auto& h = registry.histogram("dog.lat");
  h.observe(0.050);
  watchdog.watch("dog.lat", 0.100);
  watchdog.watch("dog.absent", 0.100);
  EXPECT_EQ(watchdog.size(), 2u);
  EXPECT_EQ(watchdog.check(registry), 0u);  // under threshold: no snapshot
  EXPECT_FALSE(flight.has_snapshot());

  h.observe(0.250);  // crosses
  EXPECT_EQ(watchdog.check(registry), 1u);
  ASSERT_TRUE(flight.has_snapshot());
  const FlightRecorder::Snapshot snap = flight.latest_or_live();
  EXPECT_NE(snap.reason.find("anomaly: dog.lat"), std::string::npos)
      << snap.reason;
  // The snapshot froze the trace ring, with the span recorded above.
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "dog.op");

  // Latched: the same crossing never snapshots twice...
  EXPECT_EQ(watchdog.check(registry), 0u);
  // ...until the watch is re-armed.
  watchdog.watch("dog.lat", 0.100);
  EXPECT_EQ(watchdog.check(registry), 1u);

  watchdog.clear();
  EXPECT_EQ(watchdog.size(), 0u);
  trace.set_enabled(false);
  trace.clear();
  flight.clear();
}

// ------------------------------------------------ trace capacity ceiling ---

TEST(TraceRecorder, CapacityCeilingEvictsOldestAndCountsDrops) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.capacity(), TraceRecorder::kDefaultCapacity);
  recorder.set_enabled(true);
  recorder.set_capacity(4);

  const TraceContext ctx = new_root_context();
  for (int i = 0; i < 10; ++i) {
    recorder.record_span(
        make_span(ctx, "cap.span." + std::to_string(i), "", 0.0, 1.0));
  }
  EXPECT_EQ(recorder.span_count(), 4u);
  EXPECT_EQ(recorder.dropped_spans(), 6u);
  // The survivors are the newest records.
  EXPECT_EQ(recorder.spans().front().name, "cap.span.6");
  EXPECT_EQ(recorder.spans().back().name, "cap.span.9");

  // Shrinking the capacity evicts immediately and keeps counting.
  recorder.set_capacity(2);
  EXPECT_EQ(recorder.span_count(), 2u);
  EXPECT_EQ(recorder.dropped_spans(), 8u);

  // clear() empties the buffers but never resets the drop counters.
  recorder.clear();
  EXPECT_EQ(recorder.dropped_spans(), 8u);

  // The drops are mirrored into the global metrics registry.
  EXPECT_GE(MetricsRegistry::global().counters().at("trace.dropped.spans"),
            8u);
}

TEST(TraceRecorder, TraceCapEnvOverridesDefaultCapacity) {
  ::setenv("PROXYSTORE_TRACE_CAP", "123", /*overwrite=*/1);
  const TraceRecorder capped;
  EXPECT_EQ(capped.capacity(), 123u);
  // Garbage and zero fall back to the default.
  ::setenv("PROXYSTORE_TRACE_CAP", "0", 1);
  const TraceRecorder zero;
  EXPECT_EQ(zero.capacity(), TraceRecorder::kDefaultCapacity);
  ::setenv("PROXYSTORE_TRACE_CAP", "junk", 1);
  const TraceRecorder junk;
  EXPECT_EQ(junk.capacity(), TraceRecorder::kDefaultCapacity);
  ::unsetenv("PROXYSTORE_TRACE_CAP");
}

// ------------------------------------------------------ JSON escaping -----
// Names with a quote, a backslash, a newline, a tab and a 0x01 byte must
// come back byte for byte from every JSON export.

const std::string kHostileName = "tab\there\nnl \"q\" back\\slash \x01";

TEST(JsonEscaping, BenchArtifactNamesRoundTripExactly) {
  const std::string& n = kHostileName;
  BenchArtifact artifact;
  artifact.bench = n;
  artifact.git_rev = n;
  SeriesStats stats;
  stats.count = 1;
  stats.units = n;
  SeriesAttribution attribution;
  attribution.trace_id = std::string(32, 'a');
  attribution.segments = {{n, 1.0, 1}};
  stats.attribution = attribution;
  artifact.series.emplace(n, stats);
  SloResult slo;
  slo.name = n;
  slo.metric = n;
  slo.percentile = n;
  slo.status = "pass";
  artifact.slos.push_back(slo);
  ProfileEntry entry;
  entry.path = n;
  artifact.profile_top.push_back(entry);

  std::string error;
  const auto parsed =
      parse_bench_artifact(bench_artifact_json(artifact), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->bench, n);
  EXPECT_EQ(parsed->git_rev, n);
  ASSERT_EQ(parsed->series.size(), 1u);
  EXPECT_EQ(parsed->series.begin()->first, n);
  EXPECT_EQ(parsed->series.begin()->second.units, n);
  ASSERT_TRUE(parsed->series.begin()->second.attribution.has_value());
  EXPECT_EQ(parsed->series.begin()->second.attribution->segments.at(0).segment,
            n);
  ASSERT_EQ(parsed->slos.size(), 1u);
  EXPECT_EQ(parsed->slos[0].name, n);
  EXPECT_EQ(parsed->slos[0].metric, n);
  EXPECT_EQ(parsed->slos[0].percentile, n);
  ASSERT_EQ(parsed->profile_top.size(), 1u);
  EXPECT_EQ(parsed->profile_top[0].path, n);
}

TEST(JsonEscaping, HostileNamesRoundTripThroughEveryExport) {
  const std::string& n = kHostileName;
  MetricsRegistry registry;
  registry.counter(n).inc(3);
  registry.gauge(n).set(1.5);
  registry.histogram(n).observe(1e-3);
  const JsonValue metrics = parse(registry.dump_json());
  EXPECT_EQ(metrics.at("counters").at(n).num(), 3.0);
  EXPECT_EQ(metrics.at("gauges").at(n).num(), 1.5);
  EXPECT_EQ(metrics.at("histograms").at(n).at("count").num(), 1.0);

  const JsonValue federated =
      parse(federated_metrics_json({{n, registry.take_snapshot(1.0)}}));
  EXPECT_EQ(federated.at("sites").at(n).at("counters").at(n).num(), 3.0);
  EXPECT_EQ(federated.at("aggregate").at("histograms").at(n).at("count").num(),
            1.0);

  SloReport report;
  report.verdicts.emplace_back();
  report.verdicts[0].objective = SloObjective{n, n, "p99", 1.0, 1};
  const JsonValue slo = parse(slo_report_json(report)).at("slos").arr().at(0);
  EXPECT_EQ(slo.at("name").str(), n);
  EXPECT_EQ(slo.at("metric").str(), n);

  SpanRecord span;
  span.ctx = TraceContext{1, 2, 3, 0};
  span.name = span.kind = span.subject = n;
  span.process = span.host = span.site = n;
  span.vtime_end = span.wall_end = 1.0;
  const JsonValue path =
      parse(CriticalPath::json(CriticalPath::from_spans({span}).reports()))
          .at("critical_paths")
          .arr()
          .at(0);
  EXPECT_EQ(path.at("root").str(), n);
  EXPECT_EQ(path.at("segments").arr().at(0).at("segment").str(), n);

  const JsonValue flight = parse(
      FlightRecorder::dump_json(FlightRecorder::Snapshot{n, 0, 0, {span}}));
  EXPECT_EQ(flight.at("flight").at("reason").str(), n);
  for (const JsonValue& trace : {parse(perfetto_trace_json({span})), flight}) {
    std::set<std::string> track_names;
    std::size_t slices = 0;
    for (const JsonValue& event : trace.at("traceEvents").arr()) {
      if (event.at("ph").str() == "M") {
        track_names.insert(event.at("args").at("name").str());
        continue;
      }
      ++slices;
      EXPECT_EQ(event.at("name").str(), n);
      for (const char* field : {"kind", "subject", "process", "host", "site"}) {
        EXPECT_EQ(event.at("args").at(field).str(), n) << field;
      }
    }
    EXPECT_EQ(slices, 2u);  // virtual-time and wall-clock tracks
    EXPECT_TRUE(track_names.contains(n));  // the thread (process) name
    EXPECT_TRUE(track_names.contains(n + " [vtime]"));
  }
}

TEST(JsonReader, DecodesEveryEscapeAndRejectsMalformedOnesAtTheirOffset) {
  const JsonValue decoded =
      parse(R"(["\"\\\/\b\f\n\r\t", "\u0001\u00e9\u20ac\ud83d\ude00"])");
  EXPECT_EQ(decoded.arr().at(0).str(), "\"\\/\b\f\n\r\t");
  // To UTF-8, the surrogate pair as one 4-byte sequence.
  EXPECT_EQ(decoded.arr().at(1).str(),
            "\x01\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");

  const std::pair<std::string, std::size_t> malformed[] = {
      {R"(["ok", "bad \x"])", 12},  // unknown escape letter
      {R"("\u12")", 1},             // too few hex digits
      {R"("\ud83d")", 1},           // high surrogate without its low half
      {R"("\ude00")", 1},           // low surrogate on its own
  };
  for (const auto& [text, offset] : malformed) {
    std::string error;
    EXPECT_FALSE(parse_json(text, &error).has_value()) << text;
    EXPECT_EQ(error,
              "malformed string escape at offset " + std::to_string(offset))
        << text;
  }
  // Artifacts read from disk report the same offset.
  std::string error;
  EXPECT_FALSE(parse_bench_artifact(R"({"bench":"x\q"})", &error));
  EXPECT_EQ(error, "malformed string escape at offset 11");
}

// ------------------------------------------------- concurrent exports ------
// Exercises every reader (dump_json, prometheus_text, profiler aggregation)
// against concurrent writers; run under -DPS_SANITIZE=thread this is the
// tier-2 data-race gate for the observability paths.

TEST(ObsConcurrency, ExportersAndProfilerRaceRecordersSafely) {
  auto& registry = MetricsRegistry::global();
  TraceRecorder& recorder = TraceRecorder::global();
  FlightRecorder flight(recorder);
  recorder.clear();
  recorder.set_enabled(true);
  // A tight span cap forces concurrent evictions, so the drop accounting
  // races the writers too.
  recorder.set_capacity(256);

  constexpr int kWriters = 4;
  constexpr int kIterations = 400;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIterations; ++i) {
        registry.counter("race.ops").inc();
        registry.gauge("race.depth").set(static_cast<double>(i));
        registry.histogram("race.latency").observe(1e-6 * (i + 1));
        SpanScope outer("race.outer." + std::to_string(w));
        { SpanScope inner("race.inner", "race.subject"); }
      }
    });
  }

  // Readers hammer the export paths until every writer is done.
  std::vector<std::thread> readers;
  for (int r = 0; r < 5; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_dropped = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (r == 0) {
          (void)registry.dump_json();
        } else if (r == 1) {
          (void)prometheus_text(registry);
        } else if (r == 2) {
          const Profile profile = Profile::from_recorder(recorder);
          (void)profile.folded();
          (void)profile.top_nodes(4);
        } else if (r == 3) {
          // Flight snapshots of the trace ring + critical-path analysis
          // race the recording threads; no span may come out torn.
          const auto snap = flight.snapshot("race");
          for (const SpanRecord& span : snap.spans) {
            EXPECT_FALSE(span.name.empty());
            EXPECT_LE(span.vtime_start, span.vtime_end);
          }
          (void)CriticalPath::from_recorder(recorder);
        } else {
          // Drop counters must be monotonic under concurrent eviction.
          const std::uint64_t dropped = recorder.dropped_spans();
          EXPECT_GE(dropped, last_dropped);
          last_dropped = dropped;
        }
      }
    });
  }

  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  recorder.set_enabled(false);

  EXPECT_EQ(registry.counters().at("race.ops"),
            static_cast<std::uint64_t>(kWriters) * kIterations);
  const Profile profile = Profile::from_recorder(recorder);
  EXPECT_FALSE(profile.empty());
  // 4 writers x 400 iterations x 2 spans against a 256-span cap: evictions
  // definitely happened and were all counted.
  EXPECT_LE(recorder.span_count(), 256u);
  EXPECT_GE(recorder.dropped_spans(),
            static_cast<std::uint64_t>(kWriters) * kIterations * 2 - 256);
  recorder.set_capacity(TraceRecorder::kDefaultCapacity);
  recorder.clear();
}

}  // namespace
}  // namespace ps::obs
