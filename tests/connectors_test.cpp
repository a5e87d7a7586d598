#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/uuid.hpp"
#include "connectors/distributed.hpp"
#include "connectors/endpoint.hpp"
#include "connectors/file.hpp"
#include "connectors/globus.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/connector.hpp"
#include "core/multi.hpp"
#include "core/store.hpp"
#include "endpoint/endpoint.hpp"
#include "globus/transfer.hpp"
#include "kv/server.hpp"
#include "relay/relay.hpp"
#include "proc/world.hpp"
#include "sim/vtime.hpp"

namespace ps::connectors {
namespace {

namespace fs = std::filesystem;

/// Environment for connector construction: a private world with one site.
struct ConnectorEnv {
  ConnectorEnv() {
    world = std::make_unique<proc::World>();
    world->fabric().add_site("site", net::hpc_interconnect(10e-6, 10e9));
    world->fabric().add_host("host", "site");
    process = &world->spawn("proc", "host");
  }

  std::unique_ptr<proc::World> world;
  proc::Process* process = nullptr;
};

using ConnectorFactory =
    std::function<std::shared_ptr<core::Connector>(ConnectorEnv&)>;

struct ConnectorCase {
  std::string name;
  ConnectorFactory make;
};

void PrintTo(const ConnectorCase& c, std::ostream* os) { *os << c.name; }

// ---------------------------------------------------------------------------
// Shared law suite: every connector must satisfy the Connector protocol.
// ---------------------------------------------------------------------------

class ConnectorLaws : public ::testing::TestWithParam<ConnectorCase> {
 protected:
  ConnectorLaws() : scope_(*env_.process) {
    connector_ = GetParam().make(env_);
  }

  ConnectorEnv env_;
  proc::ProcessScope scope_;
  std::shared_ptr<core::Connector> connector_;
};

TEST_P(ConnectorLaws, PutThenGetReturnsSameBytes) {
  const Bytes data = pattern_bytes(1000, 1);
  const core::Key key = connector_->put(data);
  EXPECT_EQ(connector_->get(key), data);
}

TEST_P(ConnectorLaws, EmptyPayloadSupported) {
  const core::Key key = connector_->put("");
  const auto got = connector_->get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST_P(ConnectorLaws, LargePayloadRoundTrips) {
  const Bytes data = pattern_bytes(5'000'000, 2);
  const core::Key key = connector_->put(data);
  EXPECT_EQ(connector_->get(key), data);
}

TEST_P(ConnectorLaws, DistinctPutsGetDistinctKeys) {
  const core::Key a = connector_->put("one");
  const core::Key b = connector_->put("one");
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_EQ(connector_->get(a), "one");
  EXPECT_EQ(connector_->get(b), "one");
}

TEST_P(ConnectorLaws, ExistsReflectsLifecycle) {
  const core::Key key = connector_->put("x");
  EXPECT_TRUE(connector_->exists(key));
  connector_->evict(key);
  EXPECT_FALSE(connector_->exists(key));
}

TEST_P(ConnectorLaws, GetAfterEvictReturnsNullopt) {
  const core::Key key = connector_->put("x");
  connector_->evict(key);
  EXPECT_EQ(connector_->get(key), std::nullopt);
}

TEST_P(ConnectorLaws, EvictMissingIsNoop) {
  // A structurally valid key whose object no longer exists.
  const core::Key ghost = connector_->put("ephemeral");
  connector_->evict(ghost);
  EXPECT_NO_THROW(connector_->evict(ghost));  // double evict is a no-op
}

TEST_P(ConnectorLaws, GetMissingReturnsNullopt) {
  const core::Key ghost = connector_->put("ephemeral");
  connector_->evict(ghost);
  EXPECT_EQ(connector_->get(ghost), std::nullopt);
}

TEST_P(ConnectorLaws, PutBatchMatchesIndividualPuts) {
  const std::vector<Bytes> items{"a", "bb", "ccc"};
  const auto keys = connector_->put_batch(items);
  ASSERT_EQ(keys.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(connector_->get(keys[i]), items[i]);
  }
}

TEST_P(ConnectorLaws, GetBatchMatchesPerKeyGet) {
  const core::Key a = connector_->put("alpha");
  const core::Key b = connector_->put(pattern_bytes(3000, 5));
  const core::Key gone = connector_->put("gone");
  connector_->evict(gone);
  // A missing key and a repeated key, position for position.
  const std::vector<core::Key> keys{a, gone, b, a};
  std::vector<std::optional<Bytes>> expected;
  for (const core::Key& key : keys) expected.push_back(connector_->get(key));
  EXPECT_EQ(expected[0], "alpha");
  EXPECT_EQ(expected[1], std::nullopt);
  EXPECT_EQ(connector_->get_batch(keys), expected);
  EXPECT_TRUE(connector_->get_batch({}).empty());
}

TEST_P(ConnectorLaws, ExistsBatchMatchesPerKeyExists) {
  const core::Key a = connector_->put("alpha");
  const core::Key b = connector_->put("beta");
  const core::Key gone = connector_->put("gone");
  connector_->evict(gone);
  const std::vector<core::Key> keys{a, gone, b, a};
  std::vector<bool> expected;
  for (const core::Key& key : keys) expected.push_back(connector_->exists(key));
  EXPECT_EQ(expected, (std::vector<bool>{true, false, true, true}));
  EXPECT_EQ(connector_->exists_batch(keys), expected);
  EXPECT_TRUE(connector_->exists_batch({}).empty());
}

TEST_P(ConnectorLaws, EvictBatchRemovesExactlyTheListedKeys) {
  const core::Key a = connector_->put("alpha");
  const core::Key b = connector_->put("beta");
  const core::Key c = connector_->put("gamma");
  const core::Key gone = connector_->put("gone");
  connector_->evict(gone);
  // The already-missing key is ignored.
  connector_->evict_batch({a, gone, c});
  EXPECT_FALSE(connector_->exists(a));
  EXPECT_FALSE(connector_->exists(c));
  EXPECT_TRUE(connector_->exists(b));
  EXPECT_EQ(connector_->get(b), "beta");
  EXPECT_NO_THROW(connector_->evict_batch({}));
}

TEST_P(ConnectorLaws, ConfigReconstructsEquivalentConnector) {
  const Bytes data = pattern_bytes(500, 3);
  const core::Key key = connector_->put(data);
  auto rebuilt =
      core::ConnectorRegistry::instance().reconstruct(connector_->config());
  EXPECT_EQ(rebuilt->type(), connector_->type());
  EXPECT_EQ(rebuilt->get(key), data);  // same underlying channel
}

TEST_P(ConnectorLaws, TraitsAreDeclared) {
  const auto traits = connector_->traits();
  EXPECT_FALSE(traits.storage.empty());
}

TEST_P(ConnectorLaws, StoreProxyRoundTripsAcrossProcesses) {
  // The end-to-end law every connector must satisfy: a proxy created from
  // a Store over this connector, serialized and resolved in another
  // simulated process, yields the original object.
  auto store = std::make_shared<core::Store>(
      "laws-store-" + GetParam().name + "-" + Uuid::random().str(),
      connector_);
  core::register_store(store);
  const Bytes wire = serde::to_bytes(store->proxy(pattern_bytes(2000, 11)));
  proc::Process& other = env_.world->spawn(
      "laws-consumer-" + Uuid::random().str(), "host");
  proc::ProcessScope scope(other);
  auto proxy = serde::from_bytes<core::Proxy<Bytes>>(wire);
  EXPECT_TRUE(check_pattern(*proxy, 11));
}

TEST_P(ConnectorLaws, ConcurrentPutsAndGetsAreSafe) {
  constexpr int kThreads = 4;
  constexpr int kOpsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      proc::ProcessScope scope(*env_.process);
      for (int i = 0; i < kOpsEach; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
        const Bytes data = pattern_bytes(500, seed);
        const core::Key key = connector_->put(data);
        const auto got = connector_->get(key);
        if (!got || !check_pattern(*got, seed)) failures.fetch_add(1);
        connector_->evict(key);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(ConnectorLaws, AddressedWritesWhenSupported) {
  // Connectors supporting put_at honor reserve_key/put_at semantics:
  // the key reads back the written bytes; unsupported connectors say so.
  core::Key key;
  try {
    key = connector_->reserve_key();
  } catch (const ConnectorError&) {
    core::Key some{.object_id = "x", .meta = {}};
    EXPECT_FALSE(connector_->put_at(some, "data"));
    return;
  }
  EXPECT_EQ(connector_->get(key), std::nullopt);  // reserved, not written
  EXPECT_TRUE(connector_->put_at(key, "addressed"));
  EXPECT_EQ(connector_->get(key), "addressed");
  EXPECT_TRUE(connector_->put_at(key, "overwritten"));
  EXPECT_EQ(connector_->get(key), "overwritten");
}

INSTANTIATE_TEST_SUITE_P(
    AllConnectors, ConnectorLaws,
    ::testing::Values(
        ConnectorCase{"local",
                      [](ConnectorEnv&) {
                        return std::make_shared<LocalConnector>();
                      }},
        ConnectorCase{"file",
                      [](ConnectorEnv&) {
                        const fs::path dir =
                            fs::temp_directory_path() /
                            ("ps_file_laws_" + Uuid::random().str());
                        return std::make_shared<FileConnector>(dir);
                      }},
        ConnectorCase{"redis",
                      [](ConnectorEnv& env) {
                        kv::KvServer::start(*env.world, "host", "laws");
                        return std::make_shared<RedisConnector>(
                            kv::kv_address("host", "laws"));
                      }},
        ConnectorCase{"margo",
                      [](ConnectorEnv&) {
                        return std::make_shared<MargoConnector>(
                            "laws-margo-" + Uuid::random().str());
                      }},
        ConnectorCase{"ucx",
                      [](ConnectorEnv&) {
                        return std::make_shared<UCXConnector>(
                            "laws-ucx-" + Uuid::random().str());
                      }},
        ConnectorCase{"zmq",
                      [](ConnectorEnv&) {
                        return std::make_shared<ZMQConnector>(
                            "laws-zmq-" + Uuid::random().str());
                      }},
        ConnectorCase{"globus",
                      [](ConnectorEnv& env) {
                        auto service = globus::TransferService::start(
                            *env.world);
                        const fs::path base =
                            fs::temp_directory_path() /
                            ("ps_globus_laws_" + Uuid::random().str());
                        const Uuid a =
                            service->register_endpoint("host", base / "a");
                        const Uuid b =
                            service->register_endpoint("host", base / "b");
                        return std::make_shared<GlobusConnector>(
                            std::vector<GlobusEndpointSpec>{
                                {"^host$", a}, {"^never-matches$", b}});
                      }},
        ConnectorCase{"endpoint",
                      [](ConnectorEnv& env) {
                        relay::RelayServer::start(*env.world, "host",
                                                  "laws-relay");
                        endpoint::Endpoint::start(
                            *env.world, "host",
                            "laws-ep-" + Uuid::random().str(),
                            "relay://host/laws-relay");
                        // Find the endpoint address we just bound.
                        std::vector<std::string> addresses;
                        for (const auto& addr :
                             env.world->services().addresses()) {
                          if (addr.rfind("psep://", 0) == 0) {
                            addresses.push_back(addr);
                          }
                        }
                        return std::make_shared<EndpointConnector>(addresses);
                      }}),
    [](const ::testing::TestParamInfo<ConnectorCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Connector-specific behaviour.
// ---------------------------------------------------------------------------

TEST(FileConnector, PersistsAcrossInstances) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  const fs::path dir =
      fs::temp_directory_path() / ("ps_file_persist_" + Uuid::random().str());
  core::Key key;
  {
    FileConnector c(dir);
    key = c.put("durable");
  }
  {
    FileConnector c(dir);  // new instance over the same directory
    EXPECT_EQ(c.get(key), "durable");
  }
  fs::remove_all(dir);
}

TEST(FileConnector, RejectsPathTraversalKeys) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  const fs::path dir =
      fs::temp_directory_path() / ("ps_file_sec_" + Uuid::random().str());
  FileConnector c(dir);
  core::Key evil{.object_id = "../../etc/passwd", .meta = {}};
  EXPECT_THROW(c.get(evil), ConnectorError);
  fs::remove_all(dir);
}

TEST(FileConnector, ChargesDiskCosts) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  sim::VtimeGuard guard;
  const fs::path dir =
      fs::temp_directory_path() / ("ps_file_cost_" + Uuid::random().str());
  FileConnector c(dir);
  sim::VtimeScope vt;
  const core::Key key = c.put(pattern_bytes(1'000'000));
  c.get(key);
  // Host defaults: 1 GB/s write + 2 GB/s read + 2x1 ms latency.
  EXPECT_NEAR(vt.elapsed(), 1e-3 + 1e-3 + 1e-3 + 0.5e-3, 1e-4);
  fs::remove_all(dir);
}

TEST(LocalConnector, SharedAcrossProcessesInWorld) {
  ConnectorEnv env;
  proc::Process& other = env.world->spawn("other", "host");
  core::Key key;
  std::string address;
  {
    proc::ProcessScope scope(*env.process);
    LocalConnector c;
    key = c.put("shared");
    address = c.address();
  }
  {
    proc::ProcessScope scope(other);
    LocalConnector c(address);
    EXPECT_EQ(c.get(key), "shared");
  }
}

TEST(LocalConnector, IsolatedBetweenInstances) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  LocalConnector a;
  LocalConnector b;
  const core::Key key = a.put("mine");
  EXPECT_EQ(b.get(key), std::nullopt);
}

TEST(RedisConnector, SharesServerBetweenConnectors) {
  ConnectorEnv env;
  kv::KvServer::start(*env.world, "host", "shared");
  proc::ProcessScope scope(*env.process);
  RedisConnector a(kv::kv_address("host", "shared"));
  RedisConnector b(kv::kv_address("host", "shared"));
  const core::Key key = a.put("via-a");
  EXPECT_EQ(b.get(key), "via-a");
}

TEST(RedisConnector, MissingServerThrowsAtConstruction) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  EXPECT_THROW(RedisConnector("redis://host/none"), NotRegisteredError);
}

// ---------------------------------------------------------------------------
// exists_batch: bulk presence probes (the swarm discovery primitive).
// ---------------------------------------------------------------------------

TEST(LocalConnector, ExistsBatchMatchesPerKeyExists) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  LocalConnector c;
  const core::Key a = c.put("alpha");
  const core::Key b = c.put("beta");
  core::Key gone = c.put("gone");
  c.evict(gone);
  const std::vector<core::Key> keys{a, gone, b, a};
  const std::vector<bool> present = c.exists_batch(keys);
  ASSERT_EQ(present.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(present[i], c.exists(keys[i])) << "key " << i;
  }
  EXPECT_TRUE(c.exists_batch({}).empty());
}

TEST(RedisConnector, ExistsBatchIsOnePipelinedRoundTrip) {
  ConnectorEnv env;
  kv::KvServer::start(*env.world, "host", "probe");
  proc::ProcessScope scope(*env.process);
  RedisConnector c(kv::kv_address("host", "probe"));
  std::vector<core::Key> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(c.put(pattern_bytes(100, static_cast<std::uint64_t>(i))));
  }
  core::Key missing = keys.back();
  c.evict(missing);

  // Pipelined batch probe vs. eight sequential exists() calls: the batch
  // pays one KV round trip, so it must be strictly cheaper in virtual time.
  sim::VtimeGuard guard;
  std::vector<bool> batch;
  double batch_s = 0.0;
  {
    sim::VtimeScope elapsed;
    batch = c.exists_batch(keys);
    batch_s = elapsed.elapsed();
  }
  double loop_s = 0.0;
  std::vector<bool> loop;
  {
    sim::VtimeScope elapsed;
    for (const core::Key& key : keys) loop.push_back(c.exists(key));
    loop_s = elapsed.elapsed();
  }
  EXPECT_EQ(batch, loop);
  EXPECT_FALSE(batch[keys.size() - 1]);  // evicted key reads absent
  EXPECT_TRUE(batch[0]);
  EXPECT_LT(batch_s, loop_s);
}

TEST(MultiConnector, ExistsBatchRoutesPerChildAndPreservesOrder) {
  ConnectorEnv env;
  proc::ProcessScope scope(*env.process);
  auto small = std::make_shared<LocalConnector>();
  auto large = std::make_shared<LocalConnector>();
  core::Policy small_policy;
  small_policy.max_size = 1000;
  core::Policy large_policy;
  large_policy.min_size = 1001;
  core::MultiConnector multi({{"small", small, small_policy},
                              {"large", large, large_policy}});
  // Interleave children so the scatter back to request order is exercised.
  std::vector<core::Key> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(multi.put(pattern_bytes(i % 2 == 0 ? 100 : 5000,
                                           static_cast<std::uint64_t>(i))));
  }
  multi.evict(keys[1]);
  multi.evict(keys[4]);
  const std::vector<bool> present = multi.exists_batch(keys);
  ASSERT_EQ(present.size(), keys.size());
  const std::vector<bool> expected{true, false, true, true, false, true};
  EXPECT_EQ(present, expected);
}

TEST(RedisConnector, Traits) {
  ConnectorEnv env;
  kv::KvServer::start(*env.world, "host", "traits");
  proc::ProcessScope scope(*env.process);
  RedisConnector c(kv::kv_address("host", "traits"));
  const auto t = c.traits();
  EXPECT_EQ(t.storage, "hybrid");
  EXPECT_TRUE(t.intra_site);
  EXPECT_FALSE(t.inter_site);
  EXPECT_TRUE(t.persistent);
}

}  // namespace
}  // namespace ps::connectors
