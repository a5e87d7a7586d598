#include "layers.hpp"

#include <latch>
#include <thread>

#include "common/hash.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/cache.hpp"
#include "kv/server.hpp"
#include "net/channel.hpp"
#include "obs/metrics.hpp"
#include "swarm/swarm.hpp"
#include "testbed/testbed.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using ps::Bytes;
using ps::core::Key;
using ps::core::Store;

/// Mean nanoseconds per call of `body(i)` over `calls` calls, timed as one
/// batch so the clock read does not dominate calls of a few nanoseconds.
template <typename Body>
double ns_per_call(std::size_t calls, Body&& body) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < calls; ++i) body(i);
  return static_cast<double>(now_ns() - start) / static_cast<double>(calls);
}

void require_match(const Expected& expected, const std::optional<Bytes>& value,
                   const char* where) {
  if (!value || !expected.matches(*value)) {
    throw ps::Error(std::string("layer tour: ") + where +
                    " returned an altered object");
  }
}

void tour_local(const std::vector<Bytes>& objects, std::size_t reps) {
  auto store = std::make_shared<Store>(
      "perfbench-tour-local",
      std::make_shared<trace::TracedConnector>(
          std::make_shared<ps::connectors::LocalConnector>()));
  trace::register_traced_serde(*store);
  ps::core::register_store(store, /*overwrite=*/true);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const Bytes& object : objects) {
      Key key;
      {
        trace::Span span(trace::kStorePut);
        key = store->put(object);
      }
      const Handoff done = handoff(*store, key);
      if (!done.stable || !Expected::of(object).matches(*done.value)) {
        throw ps::Error("layer tour: hand-off returned an altered object");
      }
      store->evict(key);
    }
  }
  ps::core::unregister_store(store->name());
}

/// Single puts and gets, then one resolve_batch over all objects.
void tour_remote(Store& store, const std::vector<Bytes>& objects,
                 std::size_t reps, bool batch) {
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::vector<Key> keys;
    for (const Bytes& object : objects) {
      {
        trace::Span span(trace::kStorePut);
        keys.push_back(store.put(object));
      }
      std::optional<Bytes> value;
      {
        trace::Span span(trace::kStoreGet);
        value = store.get<Bytes>(keys.back());
      }
      require_match(Expected::of(object), value, "get");
    }
    if (batch) {
      std::vector<std::optional<Bytes>> values;
      {
        trace::Span span(trace::kStoreResolveBatch);
        values = store.resolve_batch<Bytes>(keys);
      }
      for (std::size_t i = 0; i < objects.size(); ++i) {
        require_match(Expected::of(objects[i]), values[i], "resolve_batch");
      }
    }
    for (const Key& key : keys) store.evict(key);
  }
}

}  // namespace

Handoff handoff(Store& store, const Key& key) {
  Handoff out;
  std::optional<ps::core::Proxy<Bytes>> proxy;
  {
    trace::Span span(trace::kProxyCreate);
    proxy.emplace(store.proxy_from_key<Bytes>(key));
  }
  Bytes wire;
  {
    trace::Span span(trace::kProxySerialize);
    wire = ps::serde::to_bytes(*proxy);
  }
  {
    trace::Span span(trace::kProxyDeserialize);
    out.task.emplace(ps::serde::from_bytes<ps::core::Proxy<Bytes>>(wire));
  }
  {
    trace::Span span(trace::kProxyResolveFirst);
    out.value = &out.task->resolve();
  }
  {
    trace::Span span(trace::kProxyDerefCached, 3);
    for (int i = 0; i < 3; ++i) {
      out.stable = out.stable && &**out.task == out.value;
    }
  }
  return out;
}

double replay_cache_hit_ns(const ReplayInputs& in) {
  constexpr std::size_t kResident = 16;
  ps::core::ObjectCache cache(kResident);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kResident; ++i) {
    keys.push_back("perfbench/" + std::to_string(i));
    cache.put<Bytes>(keys.back(), std::make_shared<const Bytes>(
                                      in.objects[i % in.objects.size()]));
  }
  std::size_t found = 0;
  const double ns = ns_per_call(1'000'000, [&](std::size_t i) {
    const std::size_t k = in.sequence[i % in.sequence.size()] % kResident;
    found += cache.get<Bytes>(keys[k]) != nullptr ? 1 : 0;
  });
  if (found != 1'000'000) throw ps::Error("cache replay: a resident key missed");
  return ns;
}

double replay_counter_lookup_ns() {
  static const std::vector<std::string> kNames = {
      "store.gets",  "store.cache.hits", "store.cache.misses",
      "store.puts",  "store.proxies",    "proxy.resolves"};
  constexpr std::size_t kThreads = 2;
  constexpr std::size_t kCalls = 500'000;
  std::vector<double> ns(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      ns[t] = ns_per_call(kCalls, [](std::size_t i) {
        ps::obs::MetricsRegistry::ambient().counter(kNames[i % kNames.size()]);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  return (ns[0] + ns[1]) / 2.0;
}

double replay_observe_ns(const std::vector<double>& samples_s) {
  if (samples_s.empty()) return 0.0;
  ps::obs::Histogram histogram;
  return ns_per_call(1'000'000, [&](std::size_t i) {
    histogram.observe(samples_s[i % samples_s.size()]);
  });
}

double replay_channel_transact_ns(const ReplayInputs& in) {
  ps::net::PipelinedChannel channel;
  double issue = 0.0;
  return ns_per_call(500'000, [&](std::size_t i) {
    const auto bytes =
        static_cast<double>(in.objects[in.sequence[i % in.sequence.size()]].size());
    const double cost = bytes * 1e-9;  // a 1 GB/s link
    const ps::net::WireSample sample =
        channel.transact(issue, cost, [&](double arrival) {
          return std::pair<double, double>{arrival + 1e-6, cost};
        });
    issue = sample.send_start;  // keep a few requests in flight
  });
}

double replay_sha256_mb_per_s(const ReplayInputs& in) {
  std::vector<ps::BytesView> pieces;
  for (const Bytes& object : in.objects) {
    const std::size_t chunk = in.hash_chunk == 0 ? object.size() : in.hash_chunk;
    for (std::size_t at = 0; at < object.size(); at += chunk) {
      pieces.push_back(ps::BytesView(object).substr(at, chunk));
    }
  }
  constexpr std::size_t kTargetBytes = 64'000'000;
  std::size_t bytes = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; bytes < kTargetBytes; ++i) {
    const ps::BytesView piece = pieces[i % pieces.size()];
    (void)ps::Sha256::digest(piece);
    bytes += piece.size();
  }
  return static_cast<double>(bytes) / static_cast<double>(now_ns() - start) *
         1e3;
}

void tour_layers(const ReplayInputs& in) {
  std::size_t total = 0;
  for (const Bytes& object : in.objects) total += object.size();
  const std::size_t reps = total < 1'000'000 ? 16 : 1;
  tour_local(in.objects, reps);

  ps::testbed::Testbed tb = ps::testbed::build();
  ps::proc::World& world = *tb.world;
  const std::vector<std::pair<std::string, std::string>> sites = {
      {"theta", tb.theta_login},
      {"polaris", tb.polaris_login},
      {"perlmutter", tb.perlmutter_login},
      {"frontera", tb.frontera_login},
  };
  for (const auto& [name, host] : sites) {
    ps::kv::KvServer::start(world, host, "perfbench-tour-" + name);
  }
  ps::proc::ProcessScope scope(world.spawn("perfbench-tour", tb.cloud));
  const auto redis = [&](const std::string& name, const std::string& host) {
    return std::make_shared<ps::connectors::RedisConnector>(
        ps::kv::kv_address(host, "perfbench-tour-" + name));
  };
  auto single = std::make_shared<Store>(
      "perfbench-tour-redis",
      std::make_shared<trace::TracedConnector>(
          redis(sites[0].first, sites[0].second)),
      Store::Options{.cache_size = 0});
  trace::register_traced_serde(*single);
  tour_remote(*single, in.objects, reps, /*batch=*/true);

  std::vector<ps::swarm::Backend> backends;
  for (const auto& [name, host] : sites) {
    backends.push_back(ps::swarm::Backend{name, redis(name, host)});
  }
  ps::swarm::SwarmOptions options;
  options.chunk_size = 4'000'000;
  options.chunk_threshold = 8'000'000;
  options.pipeline_depth = 32;
  options.fetch_workers = 1;
  auto swarm = std::make_shared<Store>(
      "perfbench-tour-swarm",
      std::make_shared<trace::TracedConnector>(
          std::make_shared<ps::swarm::SwarmConnector>(backends, options)),
      Store::Options{.cache_size = 0});
  trace::register_traced_serde(*swarm);
  tour_remote(*swarm, in.objects, reps, /*batch=*/false);
}

}  // namespace pb
