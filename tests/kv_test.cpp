#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "kv/client.hpp"
#include "kv/server.hpp"
#include "proc/world.hpp"
#include "sim/vtime.hpp"

namespace ps::kv {
namespace {

namespace fs = std::filesystem;

class KvTest : public ::testing::Test {
 protected:
  KvTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("site", net::hpc_interconnect(50e-6, 10e9));
    world_->fabric().add_host("server-host", "site");
    world_->fabric().add_host("client-host", "site");
    client_proc_ = &world_->spawn("client", "client-host");
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* client_proc_ = nullptr;
};

TEST_F(KvTest, SetGetRoundTrip) {
  auto server = KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "value");
  EXPECT_EQ(client.get("k"), "value");
}

TEST_F(KvTest, GetMissingReturnsNullopt) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  EXPECT_EQ(client.get("nope"), std::nullopt);
}

TEST_F(KvTest, ExistsAndDelete) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "v");
  EXPECT_TRUE(client.exists("k"));
  EXPECT_TRUE(client.del("k"));
  EXPECT_FALSE(client.exists("k"));
  EXPECT_FALSE(client.del("k"));
}

TEST_F(KvTest, OverwriteReplacesValue) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "v1");
  client.set("k", "v2");
  EXPECT_EQ(client.get("k"), "v2");
}

TEST_F(KvTest, BinaryValuesAreSafe) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  const Bytes blob = pattern_bytes(100000, 9);
  client.set("blob", blob);
  EXPECT_EQ(client.get("blob"), blob);
}

TEST_F(KvTest, UnknownAddressThrows) {
  proc::ProcessScope scope(*client_proc_);
  EXPECT_THROW(KvClient("redis://nowhere/db"), NotRegisteredError);
}

TEST_F(KvTest, TtlExpiresInVirtualTime) {
  auto server = KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  sim::VtimeGuard guard;
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "v", std::chrono::milliseconds(100));
  EXPECT_EQ(client.get("k"), "v");
  sim::vadvance(0.2);  // 200 ms of virtual time pass
  EXPECT_EQ(client.get("k"), std::nullopt);
}

TEST_F(KvTest, OperationsChargeVirtualTime) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  sim::VtimeGuard guard;
  KvClient client(kv_address("server-host", "db"));
  sim::VtimeScope scope_small;
  client.set("small", pattern_bytes(100));
  const double small_cost = scope_small.elapsed();
  sim::VtimeScope scope_large;
  client.set("large", pattern_bytes(100'000'000));
  const double large_cost = scope_large.elapsed();
  EXPECT_GT(small_cost, 0.0);
  EXPECT_GT(large_cost, 10.0 * small_cost);
}

TEST_F(KvTest, QueueSerializesConcurrentVirtualRequests) {
  auto server = KvServer::start(*world_, "server-host", "db");
  // Two requests arriving at the same virtual instant are served one after
  // the other by the single-threaded server.
  const double service = server->service_time(0);
  const double first = server->queue().schedule(0.0, service);
  const double second = server->queue().schedule(0.0, service);
  EXPECT_NEAR(second - first, service, 1e-12);
}

TEST_F(KvTest, AofPersistsAcrossRestart) {
  const fs::path aof = fs::temp_directory_path() / "ps_kv_test.aof";
  fs::remove(aof);
  KvServerOptions opts;
  opts.aof_path = aof;
  {
    KvServer server("server-host", opts);
    server.set("persisted", "yes");
    server.set("deleted", "gone");
    server.del("deleted");
  }
  {
    KvServer revived("server-host", opts);
    EXPECT_EQ(revived.get("persisted"), "yes");
    EXPECT_EQ(revived.get("deleted"), std::nullopt);
    EXPECT_EQ(revived.size(), 1u);
  }
  fs::remove(aof);
}

TEST_F(KvTest, CorruptAofRejected) {
  const fs::path aof = fs::temp_directory_path() / "ps_kv_corrupt.aof";
  {
    std::ofstream out(aof, std::ios::binary | std::ios::trunc);
    out << "garbage that is not a record";
  }
  KvServerOptions opts;
  opts.aof_path = aof;
  EXPECT_THROW(KvServer("server-host", opts), ps::Error);
  fs::remove(aof);
}

TEST_F(KvTest, SetManyStoresAllPairs) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set_many({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  EXPECT_EQ(client.get("a"), "1");
  EXPECT_EQ(client.get("b"), "2");
  EXPECT_EQ(client.get("c"), "3");
}

TEST_F(KvTest, PipelinedSetManyCheaperThanIndividualSets) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  sim::VtimeGuard guard;
  KvClient client(kv_address("server-host", "db"));
  std::vector<std::pair<std::string, Bytes>> pairs;
  for (int i = 0; i < 32; ++i) {
    pairs.emplace_back("k" + std::to_string(i), pattern_bytes(100));
  }
  sim::VtimeScope individual;
  for (const auto& [key, value] : pairs) client.set(key, value);
  const double one_by_one = individual.elapsed();
  sim::VtimeScope batched;
  client.set_many(pairs);
  // One round trip instead of 32.
  EXPECT_LT(batched.elapsed(), one_by_one / 8.0);
}

// A one-key MGET is charged like a GET unless the value is shorter than 8
// bytes: micro_rpc's kv ladder issues one-key get_many_async reads and its
// blessed series rest on this.
TEST_F(KvTest, OneKeyGetManyAsyncMatchesGetInBytesAndVtime) {
  // Twin servers with the same contents and the same request history, so
  // the sync and async reads see identical queues and channels.
  KvServer::start(*world_, "server-host", "sync");
  KvServer::start(*world_, "server-host", "async");
  proc::ProcessScope scope(*client_proc_);
  KvClient sync(kv_address("server-host", "sync"));
  KvClient async(kv_address("server-host", "async"));
  for (KvClient* c : {&sync, &async}) {
    c->set("present", pattern_bytes(4096, 3));
    c->set("tiny", "abc");
  }

  sim::VtimeGuard guard;
  double start = 1.0;
  // Reads `key` both ways, each issued at `start`; checks that they return
  // the same bytes and returns the get's value and both completion vtimes.
  const auto read_both = [&](const std::string& key) {
    sim::vset(start);
    const std::optional<Bytes> got = sync.get(key);
    const double get_done = sim::vnow();
    sim::vset(start);
    const core::Future<std::vector<std::optional<Bytes>>> future =
        async.get_many_async({key});
    EXPECT_EQ(sim::vnow(), start);  // issuing does not advance the caller
    EXPECT_EQ(future.wait(), std::vector<std::optional<Bytes>>{got});
    start += 1.0;
    return std::tuple{got, get_done, future.done_vtime()};
  };

  const auto [present_value, present_get, present_many] = read_both("present");
  EXPECT_EQ(present_value, pattern_bytes(4096, 3));
  EXPECT_EQ(present_many, present_get);
  const auto [missing_value, missing_get, missing_many] = read_both("missing");
  EXPECT_EQ(missing_value, std::nullopt);
  EXPECT_EQ(missing_many, missing_get);
  const auto [tiny_value, tiny_get, tiny_many] = read_both("tiny");
  EXPECT_EQ(tiny_value, "abc");
  EXPECT_GT(tiny_many, tiny_get);  // 3 bytes, charged as 8
}

TEST_F(KvTest, FlushAllEmptiesStore) {
  KvServer server("server-host");
  server.set("a", "1");
  server.set("b", "2");
  EXPECT_EQ(server.size(), 2u);
  server.flush_all();
  EXPECT_EQ(server.size(), 0u);
}

TEST_F(KvTest, RebindSimulatesServerRestart) {
  KvServer::start(*world_, "server-host", "db");
  {
    proc::ProcessScope scope(*client_proc_);
    KvClient client(kv_address("server-host", "db"));
    client.set("k", "v");
  }
  // Restart: a fresh (empty) server takes over the address.
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  EXPECT_EQ(client.get("k"), std::nullopt);
}

}  // namespace
}  // namespace ps::kv
