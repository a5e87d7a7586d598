// Concurrency stress tests: the Store, proxies, and the FaaS fabric under
// many threads — the regimes the paper's federated deployments live in.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/refcount.hpp"
#include "core/store.hpp"
#include "faas/cloud.hpp"
#include "faas/executor.hpp"
#include "faas/registry.hpp"
#include "kv/server.hpp"
#include "obs/metrics.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"

namespace ps {
namespace {

class StressTest : public ::testing::Test {
 protected:
  StressTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("site", net::hpc_interconnect(1e-5, 10e9));
    world_->fabric().add_host("host", "site");
    main_ = &world_->spawn("main-proc", "host");
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* main_ = nullptr;
};

TEST_F(StressTest, StoreConcurrentPutGetEvict) {
  proc::ProcessScope scope(*main_);
  auto store = std::make_shared<core::Store>(
      "stress-store", std::make_shared<connectors::LocalConnector>());
  obs::Counter& puts = obs::MetricsRegistry::global().counter("store.puts");
  const std::uint64_t puts_before = puts.value();
  constexpr int kThreads = 8;
  constexpr int kOps = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      proc::ProcessScope thread_scope(*main_);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(t) * 10'000 + static_cast<std::uint64_t>(i);
        const core::Key key = store->put(pattern_bytes(256, seed));
        const auto value = store->get<Bytes>(key);
        if (!value || !check_pattern(*value, seed)) failures.fetch_add(1);
        store->evict(key);
        if (store->exists(key)) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(puts.value() - puts_before, kThreads * kOps);
}

TEST_F(StressTest, ManyThreadsShareOneProxy) {
  proc::ProcessScope scope(*main_);
  auto store = std::make_shared<core::Store>(
      "stress-proxy", std::make_shared<connectors::LocalConnector>());
  core::register_store(store);
  auto proxy = store->proxy(pattern_bytes(100'000, 9));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      proc::ProcessScope thread_scope(*main_);
      if (!check_pattern(*proxy, 9)) failures.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(StressTest, ConcurrentAsyncResolves) {
  proc::ProcessScope scope(*main_);
  auto store = std::make_shared<core::Store>(
      "stress-async", std::make_shared<connectors::LocalConnector>());
  core::register_store(store);
  std::vector<core::Proxy<Bytes>> proxies;
  for (std::uint64_t i = 0; i < 32; ++i) {
    proxies.push_back(store->proxy(pattern_bytes(10'000, i)));
  }
  for (auto& proxy : proxies) proxy.resolve_async();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint64_t i = 0; i < proxies.size(); ++i) {
    threads.emplace_back([&, i] {
      proc::ProcessScope thread_scope(*main_);
      if (!check_pattern(*proxies[i], i)) failures.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(StressTest, RefcountedProxyUnderContention) {
  proc::ProcessScope scope(*main_);
  auto store = std::make_shared<core::Store>(
      "stress-rc", std::make_shared<connectors::LocalConnector>());
  core::register_store(store);
  constexpr std::uint32_t kConsumers = 12;
  auto proxy = core::proxy_with_refs(*store, pattern_bytes(5000, 3),
                                     kConsumers);
  const core::Key key = proxy.factory().descriptor()->key;
  const Bytes wire = serde::to_bytes(proxy);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      proc::Process& consumer = world_->spawn(
          "rc-consumer-" + Uuid::random().str(), "host");
      proc::ProcessScope thread_scope(consumer);
      auto p = serde::from_bytes<core::Proxy<Bytes>>(wire);
      if (!check_pattern(*p, 3)) failures.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  proc::ProcessScope check_scope(*main_);
  EXPECT_FALSE(store->connector().exists(key));  // fully consumed
}

TEST_F(StressTest, ManyClientsOneFaasEndpoint) {
  faas::FunctionRegistry::instance().register_function(
      "stress-echo", [](BytesView request) { return Bytes(request); });
  auto cloud = faas::CloudService::start(*world_, "host");
  proc::Process& worker_proc = world_->spawn("faas-worker", "host");
  faas::ComputeEndpoint endpoint(cloud, worker_proc, /*workers=*/4);

  constexpr int kClients = 8;
  constexpr int kTasksEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      proc::Process& client = world_->spawn(
          "faas-client-" + std::to_string(c), "host");
      proc::ProcessScope scope(client);
      faas::Executor executor(cloud, endpoint.uuid());
      for (int i = 0; i < kTasksEach; ++i) {
        const Bytes payload = serde::to_bytes(c * 1000 + i);
        if (executor.submit("stress-echo", payload).get() != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  endpoint.stop();
}

TEST_F(StressTest, RedisStoreUnderParallelClients) {
  kv::KvServer::start(*world_, "host", "stress");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      proc::Process& client = world_->spawn(
          "redis-client-" + std::to_string(t), "host");
      proc::ProcessScope scope(client);
      connectors::RedisConnector connector(kv::kv_address("host", "stress"));
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(t) * 777 + static_cast<std::uint64_t>(i);
        const core::Key key = connector.put(pattern_bytes(300, seed));
        const auto got = connector.get(key);
        if (!got || !check_pattern(*got, seed)) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ps
