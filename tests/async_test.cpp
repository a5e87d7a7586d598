// Tier-2 suite for the asynchronous operation core: Future/Promise
// semantics, the bounded AsyncExecutor, single-flight proxy resolution
// under racing threads, and the Store's reads (get, resolve_batch) under
// concurrent callers. Built with -DPS_SANITIZE=thread in CI so every
// cross-thread handoff here is TSan-checked.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "connectors/local.hpp"
#include "core/async.hpp"
#include "core/factory.hpp"
#include "core/future.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"
#include "obs/metrics.hpp"
#include "proc/world.hpp"
#include "sim/vtime.hpp"

namespace ps::core {
namespace {

using connectors::LocalConnector;

// --------------------------------------------------------------- future ----

TEST(Future, ValueRoundTrip) {
  Promise<int> promise;
  Future<int> future = promise.future();
  EXPECT_TRUE(future.valid());
  EXPECT_FALSE(future.ready());
  promise.set_value(7);
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.wait(), 7);
  EXPECT_EQ(future.get(), 7);
}

TEST(Future, ErrorRethrowsToEveryWaiter) {
  Promise<int> promise;
  Future<int> future = promise.future();
  promise.set_error(std::make_exception_ptr(Error("boom")));
  EXPECT_THROW(future.wait(), Error);
  EXPECT_THROW(future.get(), Error);  // sticky: rethrows every time
}

TEST(Future, DoubleCompleteThrows) {
  Promise<int> promise;
  promise.set_value(1);
  EXPECT_THROW(promise.set_value(2), Error);
}

TEST(Future, DefaultConstructedIsInvalid) {
  Future<int> future;
  EXPECT_FALSE(future.valid());
  EXPECT_THROW(future.wait(), Error);
}

TEST(Future, WaitMergesCompletingThreadsVtime) {
  sim::vset(1.0);
  Promise<Unit> promise;
  std::thread worker([&promise] {
    sim::vset(1.25);  // the completing thread's virtual clock
    promise.set_value(Unit{});
  });
  worker.join();
  promise.future().wait();
  EXPECT_DOUBLE_EQ(promise.future().done_vtime(), 1.25);
  EXPECT_GE(sim::vnow(), 1.25);  // waiter merged the completion time
}

// ------------------------------------------------------------- executor ----

/// Fixture giving each test a one-host world and a process to run in, so
/// executor jobs have a submitting process + virtual clock to inherit.
class AsyncTest : public ::testing::Test {
 protected:
  AsyncTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("site-a", net::hpc_interconnect(10e-6, 10e9));
    world_->fabric().add_host("host-a", "site-a");
    process_ = &world_->spawn("async-proc", "host-a");
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* process_ = nullptr;
};

TEST_F(AsyncTest, RunCarriesProcessAndSeedsVtimeFromSubmitter) {
  proc::ProcessScope scope(*process_);
  sim::vset(1.0);
  Future<std::string> future =
      AsyncExecutor::shared().run<std::string>([] {
        sim::vadvance(0.5);  // charged on the worker's seeded clock
        return proc::current_process().name();
      });
  EXPECT_EQ(future.wait(), "async-proc");
  EXPECT_DOUBLE_EQ(future.done_vtime(), 1.5);
  EXPECT_DOUBLE_EQ(sim::vnow(), 1.5);  // wait() merged the job's clock
}

TEST_F(AsyncTest, RunPropagatesJobErrors) {
  proc::ProcessScope scope(*process_);
  Future<int> future = AsyncExecutor::shared().run<int>(
      []() -> int { throw Error("job failed"); });
  EXPECT_THROW(future.wait(), Error);
}

TEST_F(AsyncTest, OverlappedJobCostsMaxOfTransferAndCompute) {
  proc::ProcessScope scope(*process_);
  sim::vset(10.0);
  // Background "transfer" of 0.2 virtual seconds...
  Future<Unit> transfer = AsyncExecutor::shared().run<Unit>([] {
    sim::vadvance(0.2);
    return Unit{};
  });
  sim::vadvance(0.6);  // ...while the submitter "computes" for 0.6.
  transfer.wait();
  EXPECT_DOUBLE_EQ(sim::vnow(), 10.6);  // max(0.2, 0.6), not the sum

  Future<Unit> slow = AsyncExecutor::shared().run<Unit>([] {
    sim::vadvance(0.9);
    return Unit{};
  });
  sim::vadvance(0.1);
  slow.wait();
  EXPECT_DOUBLE_EQ(sim::vnow(), 11.5);  // 10.6 + max(0.9, 0.1)
}

TEST_F(AsyncTest, BoundedQueueBlocksSubmitterAndCountsSaturation) {
  AsyncExecutor executor(AsyncExecutor::Options{/*workers=*/1,
                                                /*max_queue=*/1});
  proc::ProcessScope scope(*process_);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  const auto gate = [&mu, &cv, &release] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&release] { return release; });
    return Unit{};
  };

  const std::uint64_t saturated_before =
      obs::MetricsRegistry::global().counter("async.executor.saturated")
          .value();

  // First job occupies the single worker (blocked on the gate)...
  Future<Unit> first = executor.run<Unit>(gate);
  while (executor.queue_depth() > 0) std::this_thread::yield();
  // ...second fills the one queue slot...
  Future<Unit> second = executor.run<Unit>(gate);
  EXPECT_EQ(executor.queue_depth(), 1u);

  // ...so a third submission must block until a slot frees. It cannot
  // complete before the gate opens no matter how long we wait: the worker
  // holds job one and the queue is full.
  std::atomic<bool> third_submitted{false};
  std::thread submitter([&] {
    proc::ProcessScope worker_scope(*process_);
    Future<Unit> third = executor.run<Unit>(gate);
    third_submitted.store(true);
    third.wait();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_submitted.load());

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  first.wait();
  second.wait();
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  EXPECT_GT(obs::MetricsRegistry::global()
                .counter("async.executor.saturated")
                .value(),
            saturated_before);
}

TEST_F(AsyncTest, EightWritersRacingBoundedQueueKeepTelemetryConsistent) {
  // 8 producer threads race a 2-worker pool whose queue holds 4 jobs while
  // the workers are gated shut, so every producer slams into blocking
  // backpressure at once. Under -DPS_SANITIZE=thread this is the data-race
  // gate for the saturation-telemetry counters themselves.
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kJobsPerWriter = 4;
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kQueue = 4;

  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t submitted_before =
      registry.counter("async.executor.submitted").value();
  const std::uint64_t completed_before =
      registry.counter("async.executor.completed").value();
  const std::uint64_t saturated_before =
      registry.counter("async.executor.saturated").value();

  {
    AsyncExecutor executor(
        AsyncExecutor::Options{/*workers=*/kWorkers, /*max_queue=*/kQueue});
    proc::ProcessScope scope(*process_);

    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    const auto gate = [&mu, &cv, &release] {
      std::unique_lock lock(mu);
      cv.wait(lock, [&release] { return release; });
      return Unit{};
    };

    // Gate both workers, then fill every queue slot with gated jobs.
    std::vector<Future<Unit>> gated;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      gated.push_back(executor.run<Unit>(gate));
    }
    while (executor.queue_depth() > 0) std::this_thread::yield();
    for (std::size_t i = 0; i < kQueue; ++i) {
      gated.push_back(executor.run<Unit>(gate));
    }
    EXPECT_EQ(executor.queue_depth(), kQueue);

    // Every writer's first submission must block: the queue is full and no
    // worker can drain it until the gate opens.
    std::atomic<std::size_t> writers_done{0};
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&] {
        proc::ProcessScope writer_scope(*process_);
        std::vector<Future<Unit>> futures;
        for (std::size_t j = 0; j < kJobsPerWriter; ++j) {
          futures.push_back(executor.run<Unit>([] { return Unit{}; }));
        }
        for (Future<Unit>& future : futures) future.wait();
        writers_done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Saturation is counted before the blocking wait, so once 8 increments
    // are visible every writer is provably stuck in its first submit.
    while (registry.counter("async.executor.saturated").value() <
           saturated_before + kWriters) {
      std::this_thread::yield();
    }
    EXPECT_EQ(writers_done.load(), 0u);

    {
      std::lock_guard lock(mu);
      release = true;
    }
    cv.notify_all();
    for (std::thread& writer : writers) writer.join();
    for (Future<Unit>& future : gated) future.wait();
    EXPECT_EQ(writers_done.load(), kWriters);
    EXPECT_EQ(executor.queue_depth(), 0u);
  }  // destructor joins the workers: counters are final below

  const std::uint64_t total = kWorkers + kQueue + kWriters * kJobsPerWriter;
  EXPECT_EQ(registry.counter("async.executor.submitted").value(),
            submitted_before + total);
  EXPECT_EQ(registry.counter("async.executor.completed").value(),
            completed_before + total);
  // Each writer's first push found the queue full, so at least 8 blocking
  // submissions were counted (later pushes may or may not block).
  EXPECT_GE(registry.counter("async.executor.saturated").value(),
            saturated_before + kWriters);
}

// ---------------------------------------------------- proxy single-flight --

TEST_F(AsyncTest, RacingResolversInvokeFactoryExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr double kStart = 5.0;
  constexpr double kTransfer = 0.3;
  std::atomic<int> invocations{0};
  Proxy<int> proxy(Factory<int>(std::function<int()>([&invocations] {
    invocations.fetch_add(1, std::memory_order_relaxed);
    sim::vadvance(kTransfer);
    // Widen the race window so waiters genuinely pile onto the pending
    // future instead of arriving after completion.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return 42;
  })));

  std::vector<std::thread> threads;
  std::vector<double> observed_vtime(kThreads, 0.0);
  std::atomic<int> wrong_values{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      proc::ProcessScope scope(*process_);
      sim::vset(kStart);
      if (i % 2 == 0) proxy.resolve_async();  // mix async and sync entry
      if (proxy.resolve() != 42) wrong_values.fetch_add(1);
      observed_vtime[static_cast<std::size_t>(i)] = sim::vnow();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(invocations.load(), 1);  // single-flight: one factory call
  EXPECT_EQ(wrong_values.load(), 0);
  EXPECT_TRUE(proxy.resolved());
  // Every observer, resolver or waiter, merged the transfer's virtual cost.
  for (const double vtime : observed_vtime) {
    EXPECT_GE(vtime, kStart + kTransfer);
  }

  // Late observers arrive after publication, from the start of virtual
  // time: they take the lock-free published path, see the one target, and
  // are still charged the transfer.
  const int* target = &proxy.resolve();
  std::vector<std::thread> late;
  std::vector<double> late_vtime(kThreads, 0.0);
  std::atomic<int> wrong_targets{0};
  for (int i = 0; i < kThreads; ++i) {
    late.emplace_back([&, i] {
      proc::ProcessScope scope(*process_);
      sim::vset(0.0);
      if (&*proxy != target) wrong_targets.fetch_add(1);
      late_vtime[static_cast<std::size_t>(i)] = sim::vnow();
    });
  }
  for (std::thread& thread : late) thread.join();
  EXPECT_EQ(invocations.load(), 1);
  EXPECT_EQ(wrong_targets.load(), 0);
  for (const double vtime : late_vtime) {
    EXPECT_GE(vtime, kStart + kTransfer);
  }
}

TEST_F(AsyncTest, FailedResolveRethrowsAndPermitsRetry) {
  std::atomic<int> calls{0};
  Proxy<int> proxy(Factory<int>(std::function<int()>([&calls]() -> int {
    if (calls.fetch_add(1) == 0) throw Error("transient");
    return 7;
  })));
  proc::ProcessScope scope(*process_);
  EXPECT_THROW(proxy.resolve(), Error);
  EXPECT_FALSE(proxy.resolved());
  EXPECT_EQ(proxy.resolve(), 7);  // pending slot was cleared: retry works
  EXPECT_EQ(calls.load(), 2);
}

TEST_F(AsyncTest, ProxyAsyncResolveOverlapsCompute) {
  proc::ProcessScope scope(*process_);
  sim::vset(0.0);
  Proxy<int> proxy(Factory<int>(std::function<int()>([] {
    sim::vadvance(0.3);  // simulated transfer
    return 5;
  })));
  sim::VtimeScope elapsed;
  proxy.resolve_async();  // transfer rides the shared executor
  sim::vadvance(0.5);     // compute proceeds meanwhile
  EXPECT_EQ(proxy.resolve(), 5);
  // Access merges the resolver's completion vtime: cost is max(T, C), i.e.
  // strictly less than the 0.8 a sync resolve-then-compute would pay.
  EXPECT_DOUBLE_EQ(elapsed.elapsed(), 0.5);
}

// --------------------------------------------------- store async fetches ---

/// An in-process LocalConnector whose get() sleeps briefly in wall-clock
/// time, with the default looping get_batch, so racing readers overlap. The
/// delay widens race windows for TSan.
class SlowGetConnector : public Connector {
 public:
  std::string type() const override { return "slow-get-test"; }
  ConnectorConfig config() const override { return inner_.config(); }
  ConnectorTraits traits() const override { return inner_.traits(); }
  Key put(BytesView data) override { return inner_.put(data); }
  std::optional<Bytes> get(const Key& key) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return inner_.get(key);
  }
  bool exists(const Key& key) override { return inner_.exists(key); }
  void evict(const Key& key) override { inner_.evict(key); }

 private:
  LocalConnector inner_;
};

/// Store over `connector` with a deserializer that counts invocations, so
/// tests can assert how many objects a read decoded.
std::shared_ptr<Store> counting_store(const std::string& name,
                                      std::shared_ptr<Connector> connector,
                                      Store::Options options,
                                      std::atomic<int>& deserializations) {
  auto store = std::make_shared<Store>(name, std::move(connector), options);
  store->register_serializer<std::string>(
      [](const std::string& value) { return Bytes(value); },
      [&deserializations](BytesView data) {
        deserializations.fetch_add(1, std::memory_order_relaxed);
        return std::string(data);
      });
  return store;
}

/// A Store event counter. Metrics scoping is off in these tests, so every
/// store records into the global registry.
std::uint64_t store_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

constexpr int kBatchThreads = 3;
constexpr int kSingleThreads = 3;

/// Races kBatchThreads resolve_batch threads and kSingleThreads get
/// threads over all of `keys` on `store`; returns how many values came back
/// wrong.
int race_batch_and_single_fetches(Store& store, proc::Process& process,
                                  const std::vector<Key>& keys,
                                  const std::vector<std::string>& expected) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kBatchThreads; ++t) {
    threads.emplace_back([&] {
      proc::ProcessScope scope(process);
      const std::vector<std::optional<std::string>> values =
          store.resolve_batch<std::string>(keys);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!values[i] || *values[i] != expected[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kSingleThreads; ++t) {
    threads.emplace_back([&] {
      proc::ProcessScope scope(process);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::optional<std::string> value =
            store.get<std::string>(keys[i]);
        if (!value || *value != expected[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return mismatches.load();
}

TEST_F(AsyncTest, ConcurrentSerdeFetchesWithoutCacheAllMatch) {
  // The serde path decodes each fetched buffer in place, and racing
  // readers of one object each fetch and decode their own copy: every
  // reader must still see every value.
  constexpr int kObjects = 8;
  auto store = std::make_shared<Store>(
      "async-flight-serde", std::make_shared<SlowGetConnector>(),
      Store::Options{.cache_size = 0});
  std::vector<Key> keys;
  std::vector<std::string> expected;
  {
    proc::ProcessScope scope(*process_);
    for (int i = 0; i < kObjects; ++i) {
      expected.push_back(pattern_bytes(4096, static_cast<std::uint64_t>(i)));
      keys.push_back(store->put(expected.back()));
    }
  }
  EXPECT_EQ(race_batch_and_single_fetches(*store, *process_, keys, expected),
            0);
}

TEST_F(AsyncTest, ResolveBatchDedupsRepeatsAndReportsMisses) {
  proc::ProcessScope scope(*process_);
  std::atomic<int> deserializations{0};
  auto store =
      counting_store("async-dedup", std::make_shared<LocalConnector>(),
                     Store::Options{.cache_size = 16}, deserializations);
  const Key alpha = store->put(std::string("alpha"));
  const Key beta = store->put(std::string("beta"));
  const Key missing{.object_id = "never-stored"};

  const std::vector<std::optional<std::string>> values =
      store->resolve_batch<std::string>(
          {alpha, beta, alpha, missing, beta, alpha});
  ASSERT_EQ(values.size(), 6u);
  EXPECT_EQ(values[0], "alpha");
  EXPECT_EQ(values[1], "beta");
  EXPECT_EQ(values[2], "alpha");
  EXPECT_EQ(values[3], std::nullopt);  // miss yields nullopt in place
  EXPECT_EQ(values[4], "beta");
  EXPECT_EQ(values[5], "alpha");
  // Batch-internal duplicates collapse onto one fetch + deserialization.
  EXPECT_EQ(deserializations.load(), 2);
}

TEST_F(AsyncTest, ResolveBatchEvictionMetricsStayConsistent) {
  proc::ProcessScope scope(*process_);
  std::atomic<int> deserializations{0};
  auto store =
      counting_store("async-evict", std::make_shared<LocalConnector>(),
                     Store::Options{.cache_size = 2}, deserializations);
  std::vector<Key> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(store->put("value-" + std::to_string(i)));
  }
  const std::uint64_t gets_before = store_counter("store.gets");
  const std::uint64_t hits_before = store_counter("store.cache.hits");
  const std::vector<std::optional<std::string>> values =
      store->resolve_batch<std::string>(keys);
  for (int i = 0; i < 6; ++i) {
    const auto index = static_cast<std::size_t>(i);
    ASSERT_TRUE(values[index].has_value());
    EXPECT_EQ(*values[index], "value-" + std::to_string(i));
  }
  EXPECT_EQ(store_counter("store.gets") - gets_before, 6u);
  EXPECT_EQ(store_counter("store.cache.hits") - hits_before, 0u);
  EXPECT_EQ(store->cache().evictions(), 4u);  // 6 inserts into a 2-slot LRU
  EXPECT_EQ(store->cache().size(), 2u);
  EXPECT_EQ(deserializations.load(), 6);
}

}  // namespace
}  // namespace ps::core
