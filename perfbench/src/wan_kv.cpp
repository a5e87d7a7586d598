// wan_kv: the testbed World with one KvServer on the Theta login node and
// 1024 simulated clients (ClientFleet, one load thread) on 8 hosts across
// 5 sites, each in a closed loop with 80 +/- 40 ms of virtual think time,
// against a RedisConnector Store with the object cache disabled:
//   80% gets of 4 KB objects, Zipf(1.1) over 64 keys;
//   10% puts of a fresh 4 KB object in place of a key (the old one evicted);
//   10% resolve_batch of 16 x 16 KB objects, Zipf(0.9) over 256 keys.
// Every op crosses KvClient -> PipelinedChannel -> fabric -> KvServer, so
// the simulator's per-request wall cost and the modelled latency dominate.
#include "bench.hpp"
#include "common/rng.hpp"
#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "kv/server.hpp"
#include "load_util.hpp"
#include "sim/vtime.hpp"
#include "testbed/testbed.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using ps::Bytes;
using ps::core::Key;
using ps::core::Store;

constexpr std::size_t kClients = 1024;
constexpr std::size_t kHotKeys = 64;
constexpr std::size_t kHotBytes = 4096;
constexpr std::size_t kBatchKeys = 256;
constexpr std::size_t kBatchBytes = 16384;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kFresh = 64;
constexpr double kThinkS = 0.040;        // think time in [40, 120) ms
constexpr double kThinkJitterS = 0.080;
/// Fleet rounds (one op per client each) whose modelled latency is kept.
constexpr std::size_t kVtimeRounds = 16;

struct Slot {
  Key key;
  Expected expected;
  std::uint64_t salt = 0;  // nonzero only in the negative self-test
};

class WanKv final : public Workload {
 public:
  WanKv(std::uint64_t seed, bool traced)
      : seed_(seed), hot_zipf_(kHotKeys, 1.1), batch_zipf_(kBatchKeys, 0.9) {
    tb_ = ps::testbed::build();
    ps::proc::World& world = *tb_.world;
    ps::sim::vset(0.0);  // the preload queues at the server from t = 0
    ps::kv::KvServer::start(world, tb_.theta_login, "perfbench");
    ps::proc::Process& admin = world.spawn("perfbench-admin", tb_.theta_login);
    ps::proc::ProcessScope scope(admin);
    store_ = std::make_shared<Store>(
        "perfbench-wan-kv",
        trace::maybe_traced(
            std::make_shared<ps::connectors::RedisConnector>(
                ps::kv::kv_address(tb_.theta_login, "perfbench")),
            traced),
        Store::Options{.cache_size = 0});
    if (traced) trace::register_traced_serde(*store_);

    std::vector<Bytes> hot;
    std::vector<Bytes> batch;
    for (std::size_t k = 0; k < kHotKeys; ++k) {
      hot.push_back(ps::pattern_bytes(kHotBytes, seed * 7919 + k));
    }
    for (std::size_t k = 0; k < kBatchKeys; ++k) {
      batch.push_back(ps::pattern_bytes(kBatchBytes, seed * 104729 + k));
    }
    for (std::size_t k = 0; k < kFresh; ++k) {
      fresh_.push_back(ps::pattern_bytes(kHotBytes, seed * 15485863 + k));
      fresh_expected_.push_back(Expected::of(fresh_.back()));
    }
    hot_ = load(hot);
    batch_ = load(batch);
    replay_objects_ = {hot[0], hot[1], batch[0], batch[1]};

    const std::vector<std::string> hosts = {
        tb_.theta_compute0,   tb_.theta_compute1, tb_.polaris_compute0,
        tb_.polaris_compute1, tb_.perlmutter_compute, tb_.chameleon0,
        tb_.chameleon1,       tb_.midway_login};
    fleet_ = std::make_unique<ps::bench::ClientFleet>(world, "perfbench", hosts,
                                                      kClients, seed);
    fleet_->stagger(0.001);
  }

  OpLog run(double seconds) override {
    OpLog log;
    log.vt_limit = kVtimeRounds * kClients;
    ps::obs::Histogram& unused = ps::obs::MetricsRegistry::global().histogram(
        "perfbench.wan_kv.fleet");
    const auto op = [&](std::size_t, ps::Rng& rng) { step(rng, log); };
    const double begin = now_s();
    while (now_s() - begin < seconds || log.vt_ms.size() < log.vt_limit) {
      fleet_->run_closed_loop(1, kThinkS, unused, op, kThinkJitterS);
    }
    log.window_s = now_s() - begin;
    return log;
  }

  std::vector<double> vtime_prefix_ms(const OpLog& log) override {
    return log.vt_ms;
  }

  double tail_percentile() const override { return 99.0; }

  CacheCounts cache_counts() override {
    ps::core::ObjectCache& cache = store_->cache();
    return {cache.hits(), cache.misses(), cache.evictions()};
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    in.objects = replay_objects_;
    ps::Rng rng(seed_);
    for (std::size_t i = 0; i < 4096; ++i) {
      in.sequence.push_back(hot_zipf_.sample(rng) % in.objects.size());
    }
    return in;
  }

  void corrupt_expected() override { hot_[0].salt = 1; }

 private:
  std::vector<Slot> load(const std::vector<Bytes>& values) {
    const std::vector<Key> keys = store_->put_batch(values);
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < values.size(); ++i) {
      slots.push_back(Slot{keys[i], Expected::of(values[i]), 0});
    }
    return slots;
  }

  /// One unit op inside the client's process scope and virtual clock.
  void step(ps::Rng& rng, OpLog& log) {
    const std::int64_t t0 = now_ns();
    const double v0 = ps::sim::vnow();
    ++log.attempted;
    try {
      trace::Span op(trace::kOp);
      const double u = rng.uniform();
      if (u < 0.8) {
        get(hot_[hot_zipf_.sample(rng)], log);
      } else if (u < 0.9) {
        put(hot_[hot_zipf_.sample(rng)], log);
      } else {
        std::vector<const Slot*> slots;
        for (std::size_t i = 0; i < kBatch; ++i) {
          slots.push_back(&batch_[batch_zipf_.sample(rng)]);
        }
        resolve_batch(slots, log);
      }
    } catch (const std::exception& e) {
      log.fail(std::string("wan_kv: ") + e.what());
    }
    log.wall_ns.add(now_ns() - t0);
    log.record_vt((ps::sim::vnow() - v0) * 1e3);
  }

  void get(const Slot& slot, OpLog& log) {
    std::optional<Bytes> value;
    {
      trace::Span span(trace::kStoreGet);
      value = store_->get<Bytes>(slot.key);
    }
    if (!value || !slot.expected.matches(*value, slot.salt)) {
      log.fail("wan_kv: get returned an object that does not match the put");
      return;
    }
    log.payload_bytes += value->size();
  }

  void put(Slot& slot, OpLog& log) {
    const std::size_t i = next_fresh_++ % kFresh;
    const Bytes& value = fresh_[i];
    Key key;
    {
      trace::Span span(trace::kStorePut);
      key = store_->put(value);
    }
    store_->evict(slot.key);
    slot.key = std::move(key);
    slot.expected = fresh_expected_[i];
    log.payload_bytes += value.size();
  }

  void resolve_batch(const std::vector<const Slot*>& slots, OpLog& log) {
    std::vector<Key> keys;
    for (const Slot* slot : slots) keys.push_back(slot->key);
    std::vector<std::optional<Bytes>> values;
    {
      trace::Span span(trace::kStoreResolveBatch);
      values = store_->resolve_batch<Bytes>(keys);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!values[i] || !slots[i]->expected.matches(*values[i])) {
        log.fail("wan_kv: resolve_batch returned a mismatching object");
        return;
      }
      log.payload_bytes += values[i]->size();
    }
  }

  std::uint64_t seed_;
  ps::bench::Zipf hot_zipf_;
  ps::bench::Zipf batch_zipf_;
  ps::testbed::Testbed tb_;
  std::shared_ptr<Store> store_;
  std::vector<Slot> hot_;
  std::vector<Slot> batch_;
  std::vector<Bytes> fresh_;
  std::vector<Expected> fresh_expected_;
  std::size_t next_fresh_ = 0;
  std::vector<Bytes> replay_objects_;
  std::unique_ptr<ps::bench::ClientFleet> fleet_;
};

}  // namespace

std::unique_ptr<Workload> make_wan_kv(std::uint64_t seed, bool traced) {
  return std::make_unique<WanKv>(seed, traced);
}

}  // namespace pb
