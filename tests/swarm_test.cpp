// SwarmConnector + ChunkScheduler: chunked round trips, placement, and the
// failure paths the subsystem exists for — corrupt-chunk re-request,
// missing-chunk failover, slow-source timeout — all deterministic under
// virtual time. The ConcurrentReassembly cases race chunk completions into
// one reassembly buffer and are the tier-2 TSan targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "connectors/local.hpp"
#include "core/store.hpp"
#include "obs/metrics.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"
#include "swarm/chaos.hpp"
#include "swarm/manifest.hpp"
#include "swarm/swarm.hpp"

namespace ps::swarm {
namespace {

// Scheduler metrics land in the ambient (process-scoped) registry; each
// SwarmEnv spawns a fresh process, so counters start from zero per test.
std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::ambient().counter(name).value();
}

/// A private world with one site, four local backends behind fault
/// injectors, and a swarm connector chunking at 64 KB.
struct SwarmEnv {
  explicit SwarmEnv(std::uint32_t replication = 2,
                    std::size_t backend_count = 4) {
    obs::set_enabled(true);
    world = std::make_unique<proc::World>();
    world->fabric().add_site("site", net::hpc_interconnect(10e-6, 10e9));
    world->fabric().add_host("host", "site");
    process = &world->spawn("proc", "host");
    scope = std::make_unique<proc::ProcessScope>(*process);

    std::vector<Backend> backends;
    for (std::size_t b = 0; b < backend_count; ++b) {
      faults.push_back(std::make_shared<FaultInjectedConnector>(
          std::make_shared<connectors::LocalConnector>()));
      backends.push_back(Backend{"b" + std::to_string(b), faults.back()});
    }
    SwarmOptions options;
    options.chunk_size = 64 * 1024;
    options.chunk_threshold = 128 * 1024;
    options.replication = replication;
    options.pipeline_depth = 4;
    connector = std::make_shared<SwarmConnector>(backends, options);
  }

  /// The backend index the first wave will fetch `chunk` from: every
  /// source estimate and discovery frontier is identical in this world
  /// (local probes charge nothing), so assignment tie-breaks to the
  /// lowest-indexed holder.
  static std::uint32_t first_pick(const ChunkRef& chunk) {
    return *std::min_element(chunk.holders.begin(), chunk.holders.end());
  }

  std::unique_ptr<proc::World> world;
  proc::Process* process = nullptr;
  std::unique_ptr<proc::ProcessScope> scope;
  std::vector<std::shared_ptr<FaultInjectedConnector>> faults;
  std::shared_ptr<SwarmConnector> connector;
};

TEST(SwarmManifest, PlacementIsDeterministicAndReplicated) {
  const Bytes data = pattern_bytes(300'000, 5);
  const Manifest a = build_manifest(data, 64 * 1024, 4, 2, 0.0);
  const Manifest b = build_manifest(data, 64 * 1024, 4, 2, 0.0);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.chunks.size(), 5u);  // ceil(300000 / 65536)
  std::uint64_t offset = 0;
  for (const ChunkRef& chunk : a.chunks) {
    EXPECT_EQ(chunk.offset, offset);
    offset += chunk.size;
    ASSERT_EQ(chunk.holders.size(), 2u);
    EXPECT_NE(chunk.holders[0], chunk.holders[1]);
    for (const std::uint32_t holder : chunk.holders) {
      EXPECT_LT(holder, 4u);
    }
  }
  EXPECT_EQ(offset, data.size());
}

TEST(SwarmManifest, IdenticalChunksShareContentAddress) {
  const Bytes repeated(128 * 1024, 'z');  // two identical 64 KB chunks
  const Manifest m = build_manifest(repeated, 64 * 1024, 4, 2, 0.0);
  ASSERT_EQ(m.chunks.size(), 2u);
  EXPECT_EQ(m.chunks[0].hash, m.chunks[1].hash);
  EXPECT_EQ(chunk_key(m.chunks[0].hash), chunk_key(m.chunks[1].hash));
}

TEST(SwarmManifest, SerdeRoundTrips) {
  const Manifest m =
      build_manifest(pattern_bytes(200'000, 9), 64 * 1024, 3, 2, 0.0);
  EXPECT_EQ(serde::from_bytes<Manifest>(serde::to_bytes(m)), m);
}

TEST(SwarmManifest, WellFormedRejectsDamagedLayouts) {
  const Manifest good =
      build_manifest(pattern_bytes(300'000, 9), 64 * 1024, 4, 2, 0.0);
  ASSERT_EQ(good.chunks.size(), 5u);
  EXPECT_TRUE(well_formed(good, 4));
  EXPECT_TRUE(well_formed(Manifest{}, 4));  // an empty payload tiles [0, 0)
  const auto rejected = [&](const auto& damage) {
    Manifest m = good;
    damage(m);
    return !well_formed(m, 4);
  };
  // Chunks must tile [0, total_size) in order.
  EXPECT_TRUE(rejected([](Manifest& m) { m.total_size += 1; }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.total_size -= 1; }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[1].offset += 1; }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[1].offset -= 1; }));
  EXPECT_TRUE(
      rejected([](Manifest& m) { std::swap(m.chunks[0], m.chunks[1]); }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks.pop_back(); }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks.back().size = ~0ull; }));
  // Sizes must be in (0, chunk_size].
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunk_size -= 1; }));
  EXPECT_TRUE(rejected([](Manifest& m) {
    m.chunks.push_back(m.chunks.back());
    m.chunks.back().offset = m.total_size;
    m.chunks.back().size = 0;
  }));
  // Holders must index a backend.
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[2].holders[0] = 4; }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[2].holders.clear(); }));
  // Hashes must be 64 lowercase hex digits.
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[3].hash[5] = 'A'; }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[3].hash[0] = 'g'; }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[3].hash.pop_back(); }));
  EXPECT_TRUE(rejected([](Manifest& m) { m.chunks[3].hash += "0"; }));
}

TEST(SwarmConnector, ChunkedPutGetRoundTrips) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(1'000'000, 11);
  const core::Key key = env.connector->put(payload);
  EXPECT_TRUE(key.meta.contains(kManifestField));
  EXPECT_TRUE(env.connector->exists(key));
  EXPECT_EQ(env.connector->get(key), payload);
  // Every chunk fetched exactly once and every fetch hash-verified.
  const std::uint64_t chunks = counter("swarm.put.chunks");
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(counter("swarm.chunks.verified"), chunks);
  EXPECT_EQ(counter("swarm.chunks.fetched"), chunks);
  EXPECT_EQ(counter("swarm.chunks.corrupt"), 0u);
  EXPECT_EQ(counter("swarm.repairs"), 0u);
}

TEST(SwarmConnector, SmallPayloadPassesThrough) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(1000, 3);
  const core::Key key = env.connector->put(payload);
  EXPECT_FALSE(key.meta.contains(kManifestField));
  EXPECT_TRUE(key.meta.contains(kBackendField));
  EXPECT_EQ(env.connector->get(key), payload);
  EXPECT_TRUE(env.connector->exists(key));
  env.connector->evict(key);
  EXPECT_FALSE(env.connector->exists(key));
}

TEST(SwarmConnector, EvictRemovesManifestAndChunks) {
  SwarmEnv env;
  const core::Key key = env.connector->put(pattern_bytes(500'000, 21));
  ASSERT_TRUE(env.connector->exists(key));
  env.connector->evict(key);
  EXPECT_FALSE(env.connector->exists(key));
  EXPECT_EQ(env.connector->get(key), std::nullopt);
}

TEST(SwarmConnector, CorruptChunkIsReRequestedFromAnotherReplica) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(1'000'000, 13);
  const core::Key key = env.connector->put(payload);
  const auto manifest = env.connector->manifest(key);
  ASSERT_TRUE(manifest.has_value());
  // Flip a byte of chunk 0 on the replica the first wave will pick; the
  // scheduler must detect the hash mismatch and re-request from the other
  // holder — the resolve still returns intact bytes.
  const ChunkRef& chunk = manifest->chunks[0];
  env.faults[SwarmEnv::first_pick(chunk)]->corrupt(
      chunk_key(chunk.hash).object_id);
  EXPECT_EQ(env.connector->get(key), payload);
  EXPECT_GE(counter("swarm.chunks.corrupt"), 1u);
  EXPECT_GE(counter("swarm.repairs"), 1u);
  EXPECT_EQ(counter("swarm.chunks.unrecoverable"), 0u);
}

TEST(SwarmConnector, MissingChunkFailsOverToAnotherReplica) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(1'000'000, 17);
  const core::Key key = env.connector->put(payload);
  const auto manifest = env.connector->manifest(key);
  ASSERT_TRUE(manifest.has_value());
  const ChunkRef& chunk = manifest->chunks[0];
  env.faults[SwarmEnv::first_pick(chunk)]->drop(
      chunk_key(chunk.hash).object_id);
  EXPECT_EQ(env.connector->get(key), payload);
  EXPECT_GE(counter("swarm.chunks.missing"), 1u);
  EXPECT_GE(counter("swarm.repairs"), 1u);
}

TEST(SwarmConnector, AllReplicasLostIsUnrecoverable) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(1'000'000, 19);
  const core::Key key = env.connector->put(payload);
  const auto manifest = env.connector->manifest(key);
  ASSERT_TRUE(manifest.has_value());
  const ChunkRef& chunk = manifest->chunks[2];
  for (const std::uint32_t holder : chunk.holders) {
    env.faults[holder]->drop(chunk_key(chunk.hash).object_id);
  }
  EXPECT_EQ(env.connector->get(key), std::nullopt);
  EXPECT_GE(counter("swarm.chunks.unrecoverable"), 1u);
}

TEST(SwarmConnector, CorruptManifestReplicaIsSkipped) {
  // Backend 0 wins the manifest race's tie-break in this world. Corrupting
  // its copy flips the low bit of total_size, so 1,000,001 reads back as
  // 1,000,000 and 1,000,000 as 1,000,001. Both still decode; neither tiles
  // its chunks, so the resolve must take an intact replica instead.
  for (const std::size_t size :
       {std::size_t{1'000'001}, std::size_t{1'000'000}}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    SwarmEnv env;
    const Bytes payload = pattern_bytes(size, 47);
    const core::Key key = env.connector->put(payload);
    env.faults[0]->corrupt(key.object_id);
    const std::uint64_t invalid_before = counter("swarm.manifest.invalid");
    const std::optional<Bytes> value = env.connector->get(key);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->size(), size);
    EXPECT_TRUE(*value == payload);
    EXPECT_EQ(counter("swarm.manifest.invalid") - invalid_before, 1u);
  }
}

TEST(SwarmConnector, NoWellFormedManifestReplicaIsUnrecoverable) {
  SwarmEnv env;
  const core::Key key = env.connector->put(pattern_bytes(1'000'001, 53));
  for (const auto& fault : env.faults) fault->corrupt(key.object_id);
  EXPECT_FALSE(env.connector->manifest(key).has_value());
  EXPECT_FALSE(env.connector->get(key).has_value());
  // Eviction still reaches every manifest copy.
  env.connector->evict(key);
  EXPECT_FALSE(env.connector->exists(key));
}

TEST(SwarmConnector, SlowSourceIsTimedOutAndRoutedAround) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(1'000'000, 23);
  const core::Key key = env.connector->put(payload);
  // Backend 0 develops 0.5 s of per-request latency. The deadline derives
  // from the healthy backends' observed per-byte rate, so its wave times
  // out and its chunks are re-requested elsewhere; the resolve must finish
  // far below the injected latency (the slow source's completion vtime is
  // discarded, never merged).
  env.faults[0]->set_get_delay(0.5);
  sim::VtimeGuard guard;
  sim::VtimeScope elapsed;
  EXPECT_EQ(env.connector->get(key), payload);
  EXPECT_LT(elapsed.elapsed(), 0.25);
  EXPECT_GE(counter("swarm.source.timeouts"), 1u);
  EXPECT_GE(counter("swarm.source.b0.timeouts"), 1u);
  EXPECT_GE(counter("swarm.repairs"), 1u);
}

TEST(SwarmConnector, ResolveVtimeIsDeterministic) {
  // Two structurally identical environments resolve the same payload in
  // exactly the same virtual time — the acceptance/repair/timeout machinery
  // is a pure function of deterministic vtimes, however threads interleave.
  std::vector<double> elapsed;
  for (int run = 0; run < 2; ++run) {
    SwarmEnv env;
    const Bytes payload = pattern_bytes(2'000'000, 29);
    sim::VtimeGuard guard;
    // Pin both runs to one absolute base so the comparison is bit-exact:
    // vtime arithmetic happens on absolute clocks, and (base + work) - base
    // only round-trips through double exactly when base is the same.
    sim::vset(1.0);
    const core::Key key = env.connector->put(payload);
    sim::VtimeScope scope;
    ASSERT_EQ(env.connector->get(key), payload);
    elapsed.push_back(scope.elapsed());
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

TEST(SwarmConnector, ProxyRoundTripsAcrossProcesses) {
  SwarmEnv env;
  auto store = std::make_shared<core::Store>("swarm-proxy-test",
                                             env.connector);
  core::register_store(store);
  const Bytes wire =
      serde::to_bytes(store->proxy(pattern_bytes(400'000, 31)));
  proc::Process& other = env.world->spawn("swarm-consumer", "host");
  proc::ProcessScope scope(other);
  auto proxy = serde::from_bytes<core::Proxy<Bytes>>(wire);
  EXPECT_TRUE(check_pattern(*proxy, 31));
}

TEST(SwarmConnector, ConfigReconstructsEquivalentConnector) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(600'000, 37);
  const core::Key key = env.connector->put(payload);
  auto rebuilt =
      core::ConnectorRegistry::instance().reconstruct(env.connector->config());
  EXPECT_EQ(rebuilt->type(), "swarm");
  EXPECT_EQ(rebuilt->get(key), payload);
}

// -- tier-2 concurrency targets ---------------------------------------------

TEST(SwarmConcurrency, ConcurrentChunkCompletionsShareOneBuffer) {
  // Many small chunks + a deep pipeline: chunk fetch jobs complete
  // concurrently on the private executor, and each wave's verify pass
  // hashes their values and memcpy's them into disjoint ranges of one
  // reassembly buffer on all cores. TSan must see no race.
  SwarmEnv env;
  std::vector<Backend> backends;
  for (std::size_t b = 0; b < env.faults.size(); ++b) {
    backends.push_back(Backend{"r" + std::to_string(b), env.faults[b]});
  }
  SwarmOptions options;
  options.chunk_size = 4 * 1024;
  options.chunk_threshold = 8 * 1024;
  options.replication = 2;
  options.pipeline_depth = 16;
  options.fetch_workers = 8;
  auto racy = std::make_shared<SwarmConnector>(backends, options);
  const Bytes payload = pattern_bytes(512 * 1024, 41);  // 128 chunks
  const core::Key key = racy->put(payload);
  EXPECT_EQ(racy->get(key), payload);
}

TEST(SwarmConcurrency, ParallelResolvesOfTheSameObjectAreSafe) {
  SwarmEnv env;
  const Bytes payload = pattern_bytes(768 * 1024, 43);
  const core::Key key = env.connector->put(payload);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      proc::ProcessScope scope(*env.process);
      const auto value = env.connector->get(key);
      if (!value || *value != payload) failures.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ps::swarm
