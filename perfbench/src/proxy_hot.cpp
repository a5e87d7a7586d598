// proxy_hot: two load threads share one LocalConnector Store with the
// default 16-entry object cache, each in a closed loop with no think time
// over 1024 ~1 KB objects chosen by Zipf(1.1). 90% of ops are task
// hand-offs (proxy_from_key, serialize the proxy, deserialize it, first
// deref, three cached derefs); 10% put a fresh object in place of a key and
// evict the old one. It isolates the per-op CPU cost of Store, Proxy,
// ObjectCache, descriptor serde and metric lookups, and the contention on
// their shared mutexes; there is no wire or simulator cost.
#include <latch>
#include <shared_mutex>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "common/rng.hpp"
#include "connectors/local.hpp"
#include "core/store.hpp"
#include "load_util.hpp"
#include "sim/vtime.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using ps::Bytes;
using ps::core::Key;
using ps::core::Store;

constexpr std::size_t kObjects = 1024;
constexpr std::size_t kThreads = 2;
constexpr double kPutShare = 0.10;
constexpr std::size_t kFreshPerThread = 256;
/// Ops of the single-thread replay that gives the modelled latency.
constexpr std::size_t kVtimeOps = 20000;

/// ~1 KB: each object's size is drawn from the seed in [896, 1152] bytes, so
/// every seed has its own size mix and modelled copy costs.
std::size_t object_size(ps::Rng& rng) {
  return static_cast<std::size_t>(896 + rng.uniform_int(0, 256));
}

struct Slot {
  mutable std::shared_mutex mu;  // a put swaps the key under readers' feet
  Key key;
  Expected expected;
  std::uint64_t salt = 0;  // nonzero only in the negative self-test
};

/// One load thread's deterministic op sequence and its fresh payloads.
struct OpStream {
  OpStream(std::uint64_t seed, std::size_t thread)
      : rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed + thread) {
    for (std::size_t i = 0; i < kFreshPerThread; ++i) {
      fresh.push_back(ps::pattern_bytes(object_size(rng), rng.next_u64()));
      fresh_expected.push_back(Expected::of(fresh.back()));
    }
  }

  ps::Rng rng;
  std::vector<Bytes> fresh;
  std::vector<Expected> fresh_expected;
  std::size_t next_fresh = 0;
};

std::atomic<std::uint64_t> g_store_ids{0};

class ProxyHot final : public Workload {
 public:
  ProxyHot(std::uint64_t seed, bool traced)
      : seed_(seed), traced_(traced), zipf_(kObjects, 1.1), slots_(kObjects) {
    ps::Rng rng(seed);
    for (std::size_t i = 0; i < kObjects; ++i) {
      objects_.push_back(ps::pattern_bytes(object_size(rng), rng.next_u64()));
    }
    store_ = make_store();
    load(*store_, slots_);
    for (std::size_t t = 0; t < kThreads; ++t) streams_.emplace_back(seed, t);
  }

  ~ProxyHot() override { tear_down(*store_, slots_); }

  /// No modelled latency is kept here: two threads interleave on the cache
  /// in a run-dependent order (see vtime_prefix_ms).
  OpLog run(double seconds) override {
    std::vector<OpLog> logs(kThreads);
    std::atomic<bool> stop{false};
    std::latch start(kThreads + 1);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        while (!stop.load(std::memory_order_relaxed)) {
          step(*store_, slots_, streams_[t], logs[t]);
        }
      });
    }
    start.arrive_and_wait();
    const double begin = now_s();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& thread : threads) thread.join();
    OpLog log = std::move(logs[0]);
    log.window_s = now_s() - begin;
    for (std::size_t t = 1; t < kThreads; ++t) log.merge(logs[t]);
    return log;
  }

  /// Replays the first kVtimeOps ops of the two threads' op sequences,
  /// interleaved one-for-one on one thread, against a fresh store: the cache
  /// sees a fixed order, so the modelled latency is bit-identical per seed.
  std::vector<double> vtime_prefix_ms(const OpLog&) override {
    ps::sim::vset(0.0);  // same clock origin, same floating-point deltas
    std::shared_ptr<Store> store = make_store();
    std::vector<Slot> slots(kObjects);
    load(*store, slots);
    std::vector<OpStream> streams;
    for (std::size_t t = 0; t < kThreads; ++t) streams.emplace_back(seed_, t);
    OpLog log;
    log.vt_limit = kVtimeOps;
    for (std::size_t i = 0; i < kVtimeOps; ++i) {
      step(*store, slots, streams[i % kThreads], log);
    }
    tear_down(*store, slots);
    if (log.failed != 0) throw ps::Error("proxy_hot: vtime replay failed");
    return log.vt_ms;
  }

  double tail_percentile() const override { return 99.0; }

  CacheCounts cache_counts() override {
    ps::core::ObjectCache& cache = store_->cache();
    return {cache.hits(), cache.misses(), cache.evictions()};
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    in.objects.assign(objects_.begin(), objects_.begin() + 16);
    ps::Rng rng(seed_);
    for (std::size_t i = 0; i < 4096; ++i) {
      in.sequence.push_back(zipf_.sample(rng) % in.objects.size());
    }
    return in;
  }

  void corrupt_expected() override { slots_[0].salt = 1; }

 private:
  std::shared_ptr<Store> make_store() {
    auto store = std::make_shared<Store>(
        "perfbench-proxy-hot-" + std::to_string(g_store_ids++),
        trace::maybe_traced(std::make_shared<ps::connectors::LocalConnector>(),
                            traced_));
    if (traced_) trace::register_traced_serde(*store);
    ps::core::register_store(store);
    return store;
  }

  void load(Store& store, std::vector<Slot>& slots) const {
    const std::vector<Key> keys = store.put_batch(objects_);
    for (std::size_t i = 0; i < kObjects; ++i) {
      slots[i].key = keys[i];
      slots[i].expected = Expected::of(objects_[i]);
    }
  }

  /// Evicts what the store still holds, as an application would before
  /// dropping it, so set-ups repeated in one process do not pile up objects.
  static void tear_down(Store& store, std::vector<Slot>& slots) {
    std::vector<Key> keys;
    for (const Slot& slot : slots) keys.push_back(slot.key);
    store.evict_batch(keys);
    ps::core::unregister_store(store.name());
  }

  /// One unit op, timed and checked; failures are counted, never thrown.
  void step(Store& store, std::vector<Slot>& slots, OpStream& stream,
            OpLog& log) const {
    const bool put = stream.rng.uniform() < kPutShare;
    Slot& slot = slots[zipf_.sample(stream.rng)];
    const std::int64_t t0 = now_ns();
    const double v0 = ps::sim::vnow();
    ++log.attempted;
    try {
      trace::Span op(trace::kOp);
      if (put) {
        replace(store, slot, stream, log);
      } else {
        handoff(store, slot, log);
      }
    } catch (const std::exception& e) {
      log.fail(std::string("proxy_hot: ") + e.what());
    }
    log.wall_ns.add(now_ns() - t0);
    log.record_vt((ps::sim::vnow() - v0) * 1e3);
  }

  static void handoff(Store& store, const Slot& slot, OpLog& log) {
    std::shared_lock lock(slot.mu);
    const Handoff done = pb::handoff(store, slot.key);
    if (!done.stable || !slot.expected.matches(*done.value, slot.salt)) {
      log.fail("proxy_hot: resolved object does not match what was put");
    }
    log.payload_bytes += done.value->size();
  }

  static void replace(Store& store, Slot& slot, OpStream& stream, OpLog& log) {
    const std::size_t i = stream.next_fresh++ % kFreshPerThread;
    std::unique_lock lock(slot.mu);
    Key key;
    {
      trace::Span span(trace::kStorePut);
      key = store.put(stream.fresh[i]);
    }
    store.evict(slot.key);
    slot.key = std::move(key);
    slot.expected = stream.fresh_expected[i];
    log.payload_bytes += stream.fresh[i].size();
  }

  std::uint64_t seed_;
  bool traced_;
  ps::bench::Zipf zipf_;
  std::vector<Bytes> objects_;
  std::shared_ptr<Store> store_;
  std::vector<Slot> slots_;
  std::vector<OpStream> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_proxy_hot(std::uint64_t seed, bool traced) {
  return std::make_unique<ProxyHot>(seed, traced);
}

}  // namespace pb
