// bulk_swarm: one cloud client and KvServers on the Theta, Polaris,
// Perlmutter and Frontera logins, and two Stores with the object cache
// disabled: a single-source RedisConnector Store on Theta, and a
// SwarmConnector Store over all four sites (4 MB chunks, replication 2,
// pipeline depth 32, one fetch worker so the modelled latency is
// deterministic). One unit op moves a ~16 MB payload through each store in
// turn: put, get, check every byte, evict. A unit op visits both stores so
// that per-op percentiles describe one population (with single-store ops,
// the median of the 50/50 mix would sit on the edge between two clusters).
// Per-byte costs (copies through serde, connector and kv, SHA-256 on put
// and verify, chunk reassembly) dominate; per-op overhead is diluted ~10^4x.
#include <cstring>

#include "bench.hpp"
#include "common/rng.hpp"
#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "kv/server.hpp"
#include "sim/vtime.hpp"
#include "swarm/swarm.hpp"
#include "testbed/testbed.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using ps::Bytes;
using ps::core::Key;
using ps::core::Store;

constexpr std::size_t kPayloads = 4;
constexpr std::size_t kChunkBytes = 4'000'000;
/// Ops whose modelled latency is kept.
constexpr std::size_t kVtimeOps = 16;

class BulkSwarm final : public Workload {
 public:
  BulkSwarm(std::uint64_t seed, bool traced) {
    tb_ = ps::testbed::build();
    ps::proc::World& world = *tb_.world;
    const std::vector<std::pair<std::string, std::string>> sites = {
        {"theta", tb_.theta_login},
        {"polaris", tb_.polaris_login},
        {"perlmutter", tb_.perlmutter_login},
        {"frontera", tb_.frontera_login},
    };
    for (const auto& [name, host] : sites) {
      ps::kv::KvServer::start(world, host, "perfbench-" + name);
    }
    client_ = &world.spawn("perfbench-bulk-client", tb_.cloud);
    ps::proc::ProcessScope scope(*client_);
    ps::sim::vset(0.0);  // same clock origin, same floating-point deltas
    const auto redis = [&](const std::string& name, const std::string& host) {
      return std::make_shared<ps::connectors::RedisConnector>(
          ps::kv::kv_address(host, "perfbench-" + name));
    };
    single_ = std::make_shared<Store>(
        "perfbench-bulk-single",
        trace::maybe_traced(redis(sites[0].first, sites[0].second), traced),
        Store::Options{.cache_size = 0});
    std::vector<ps::swarm::Backend> backends;
    for (const auto& [name, host] : sites) {
      backends.push_back(ps::swarm::Backend{name, redis(name, host)});
    }
    ps::swarm::SwarmOptions options;
    options.chunk_size = kChunkBytes;
    options.chunk_threshold = 2 * kChunkBytes;
    options.replication = 2;
    options.pipeline_depth = 32;
    options.fetch_workers = 1;
    swarm_ = std::make_shared<Store>(
        "perfbench-bulk-swarm",
        trace::maybe_traced(
            std::make_shared<ps::swarm::SwarmConnector>(backends, options),
            traced),
        Store::Options{.cache_size = 0});
    if (traced) {
      trace::register_traced_serde(*single_);
      trace::register_traced_serde(*swarm_);
    }
    // ~16 MB each: sizes drawn from the seed in [15.5, 16] MB (4 chunks).
    ps::Rng rng(seed);
    for (std::size_t i = 0; i < kPayloads; ++i) {
      const auto size =
          static_cast<std::size_t>(15'500'000 + rng.uniform_int(0, 500'000));
      payloads_.push_back(ps::pattern_bytes(size, rng.next_u64()));
    }
  }

  OpLog run(double seconds) override {
    ps::proc::ProcessScope scope(*client_);
    OpLog log;
    log.vt_limit = kVtimeOps;
    const double begin = now_s();
    while (now_s() - begin < seconds || log.vt_ms.size() < log.vt_limit) {
      step(next_op_++, log);
    }
    log.window_s = now_s() - begin;
    return log;
  }

  std::vector<double> vtime_prefix_ms(const OpLog& log) override {
    return log.vt_ms;
  }

  /// A run has well under 1000 ops, so p99 would be the single worst op.
  double tail_percentile() const override { return 90.0; }

  CacheCounts cache_counts() override {
    CacheCounts counts;
    for (Store* store : {single_.get(), swarm_.get()}) {
      ps::core::ObjectCache& cache = store->cache();
      counts.hits += cache.hits();
      counts.misses += cache.misses();
      counts.evictions += cache.evictions();
    }
    return counts;
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    in.objects.assign(payloads_.begin(), payloads_.begin() + 2);
    for (std::size_t i = 0; i < 64; ++i) in.sequence.push_back(i % 2);
    in.hash_chunk = kChunkBytes;
    return in;
  }

  void corrupt_expected() override { wrong_expected_ = payloads_[0]; }

 private:
  /// Unit op i: payload i mod 4, stamped with i at the head of every chunk
  /// (so each op moves fresh content and gets its own swarm placement),
  /// through the single-source store and then the swarm store.
  void step(std::size_t i, OpLog& log) {
    Bytes& payload = payloads_[i % kPayloads];
    for (std::size_t at = 0; at + sizeof(i) <= payload.size();
         at += kChunkBytes) {
      std::memcpy(payload.data() + at, &i, sizeof(i));
    }
    const bool wrong = i % kPayloads == 0 && !wrong_expected_.empty();
    if (wrong) {
      wrong_expected_ = payload;
      wrong_expected_[wrong_expected_.size() / 2] ^= 1;
    }
    const Bytes& expected = wrong ? wrong_expected_ : payload;
    const std::int64_t t0 = now_ns();
    const double v0 = ps::sim::vnow();
    ++log.attempted;
    try {
      trace::Span op(trace::kOp);
      if (round_trip(*single_, payload, expected) &&
          round_trip(*swarm_, payload, expected)) {
        log.payload_bytes += 4 * payload.size();
      } else {
        log.fail("bulk_swarm: payload came back altered");
      }
    } catch (const std::exception& e) {
      log.fail(std::string("bulk_swarm: ") + e.what());
    }
    log.wall_ns.add(now_ns() - t0);
    log.record_vt((ps::sim::vnow() - v0) * 1e3);
  }

  /// Puts `payload`, gets it back, evicts it; true when every byte matches.
  static bool round_trip(Store& store, const Bytes& payload,
                         const Bytes& expected) {
    Key key;
    {
      trace::Span span(trace::kStorePut);
      key = store.put(payload);
    }
    std::optional<Bytes> value;
    {
      trace::Span span(trace::kStoreGet);
      value = store.get<Bytes>(key);
    }
    store.evict(key);
    return value && value->size() == expected.size() &&
           std::memcmp(value->data(), expected.data(), expected.size()) == 0;
  }

  ps::testbed::Testbed tb_;
  ps::proc::Process* client_ = nullptr;
  std::shared_ptr<Store> single_;
  std::shared_ptr<Store> swarm_;
  std::vector<Bytes> payloads_;
  std::size_t next_op_ = 0;
  Bytes wrong_expected_;  // set only by the negative self-test
};

}  // namespace

std::unique_ptr<Workload> make_bulk_swarm(std::uint64_t seed, bool traced) {
  return std::make_unique<BulkSwarm>(seed, traced);
}

}  // namespace pb
