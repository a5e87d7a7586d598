// AccessControlConnector: confidential objects resolve only where
// permitted (paper section 3.3's patient-health-information example).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "connectors/access.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "kv/server.hpp"
#include "obs/metrics.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"

namespace ps::connectors {
namespace {

class AccessTest : public ::testing::Test {
 protected:
  AccessTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("hospital", net::hpc_interconnect(1e-5, 1e9));
    world_->fabric().add_site("hpc", net::hpc_interconnect(1e-5, 1e9));
    world_->fabric().add_site("cloud", net::hpc_interconnect(1e-5, 1e9));
    world_->fabric().connect_sites("hospital", "hpc", net::wan_tcp(5e-3, 1e9));
    world_->fabric().connect_sites("hospital", "cloud",
                                   net::wan_tcp(5e-3, 1e9));
    world_->fabric().add_host("hospital-node", "hospital");
    world_->fabric().add_host("hpc-node", "hpc");
    world_->fabric().add_host("cloud-node", "cloud");
    hospital_ = &world_->spawn("hospital-proc", "hospital-node");
    hpc_ = &world_->spawn("hpc-proc", "hpc-node");
    cloud_ = &world_->spawn("cloud-proc", "cloud-node");
  }

  std::shared_ptr<AccessControlConnector> make_connector() {
    proc::ProcessScope scope(*hospital_);
    return std::make_shared<AccessControlConnector>(
        std::make_shared<LocalConnector>(),
        std::set<std::string>{"hospital", "hpc"});
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* hospital_ = nullptr;
  proc::Process* hpc_ = nullptr;
  proc::Process* cloud_ = nullptr;
};

TEST_F(AccessTest, AllowedSitesResolve) {
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("phi-record");
    EXPECT_EQ(connector->get(key), "phi-record");
  }
  proc::ProcessScope scope(*hpc_);
  EXPECT_EQ(connector->get(key), "phi-record");
  EXPECT_TRUE(connector->exists(key));
}

TEST_F(AccessTest, DisallowedSiteDenied) {
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("phi-record");
  }
  proc::ProcessScope scope(*cloud_);
  EXPECT_THROW(connector->get(key), AccessDeniedError);
  EXPECT_THROW(connector->exists(key), AccessDeniedError);
}

// Over a pipelined inner, each batch verb stays one kv request: access is
// checked once per batch (it depends only on the caller's site), and a
// denied batch sends nothing.
TEST_F(AccessTest, BatchVerbsForwardAsOneKvRequest) {
  obs::set_enabled(true);
  kv::KvServer::start(*world_, "hospital-node", "phi-kv");
  std::shared_ptr<AccessControlConnector> connector;
  std::vector<core::Key> keys;
  {
    proc::ProcessScope scope(*hospital_);
    connector = std::make_shared<AccessControlConnector>(
        std::make_shared<RedisConnector>(
            kv::kv_address("hospital-node", "phi-kv")),
        std::set<std::string>{"hospital", "hpc"});
    for (std::uint64_t i = 0; i < 8; ++i) {
      keys.push_back(connector->put(pattern_bytes(100, i)));
    }
  }
  const obs::Counter& requests =
      obs::MetricsRegistry::global().counter("rpc.requests");
  const auto requests_for = [&](const std::function<void()>& call) {
    const std::uint64_t before = requests.value();
    call();
    return requests.value() - before;
  };
  {
    proc::ProcessScope scope(*cloud_);
    EXPECT_EQ(requests_for([&] {
                EXPECT_THROW(connector->get_batch(keys), AccessDeniedError);
              }),
              0u);
    EXPECT_EQ(requests_for([&] {
                EXPECT_THROW(connector->exists_batch(keys),
                             AccessDeniedError);
              }),
              0u);
  }
  proc::ProcessScope scope(*hpc_);
  EXPECT_EQ(requests_for([&] {
              const auto values = connector->get_batch(keys);
              ASSERT_EQ(values.size(), keys.size());
              EXPECT_EQ(values[3], pattern_bytes(100, 3));
            }),
            1u);
  EXPECT_EQ(requests_for([&] {
              EXPECT_EQ(connector->exists_batch(keys),
                        std::vector<bool>(keys.size(), true));
            }),
            1u);
  EXPECT_EQ(requests_for([&] { connector->evict_batch(keys); }), 1u);
  EXPECT_EQ(connector->exists_batch(keys),
            std::vector<bool>(keys.size(), false));
}

TEST_F(AccessTest, ProxyCirculatesButResolvesOnlyWherePermitted) {
  Bytes wire;
  {
    proc::ProcessScope scope(*hospital_);
    auto store = std::make_shared<core::Store>("phi-store", make_connector());
    core::register_store(store);
    wire = serde::to_bytes(store->proxy(std::string("scan-data")));
  }
  {
    // The proxy itself travels anywhere — including the cloud...
    proc::ProcessScope scope(*cloud_);
    auto proxy = serde::from_bytes<core::Proxy<std::string>>(wire);
    EXPECT_THROW(proxy.resolve(), AccessDeniedError);
  }
  {
    // ...but the data only materializes at permitted sites.
    proc::ProcessScope scope(*hpc_);
    auto proxy = serde::from_bytes<core::Proxy<std::string>>(wire);
    EXPECT_EQ(*proxy, "scan-data");
  }
}

TEST_F(AccessTest, ConfigRoundTripsThroughRegistry) {
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("data");
  }
  proc::ProcessScope scope(*hpc_);
  auto rebuilt =
      core::ConnectorRegistry::instance().reconstruct(connector->config());
  EXPECT_EQ(rebuilt->type(), "access");
  EXPECT_EQ(rebuilt->get(key), "data");
}

TEST_F(AccessTest, EvictionAllowedAnywhere) {
  // Deleting data is not an information flow; any holder may evict.
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("data");
  }
  {
    proc::ProcessScope scope(*cloud_);
    EXPECT_NO_THROW(connector->evict(key));
  }
  proc::ProcessScope scope(*hospital_);
  EXPECT_FALSE(connector->exists(key));
}

TEST_F(AccessTest, RejectsBadConstruction) {
  proc::ProcessScope scope(*hospital_);
  EXPECT_THROW(AccessControlConnector(nullptr, {"hospital"}), ConnectorError);
  EXPECT_THROW(
      AccessControlConnector(std::make_shared<LocalConnector>(), {}),
      ConnectorError);
}

TEST_F(AccessTest, DataflowFuturesRespectAccessControl) {
  proc::ProcessScope scope(*hospital_);
  auto store = std::make_shared<core::Store>("phi-df", make_connector());
  core::register_store(store);
  auto future = store->make_future<std::string>();
  store->fulfill(future.key, std::string("late-phi"));
  const Bytes wire = serde::to_bytes(future.proxy);
  {
    proc::ProcessScope cloud_scope(*cloud_);
    auto proxy = serde::from_bytes<core::Proxy<std::string>>(wire);
    EXPECT_THROW(proxy.resolve(), AccessDeniedError);
  }
  EXPECT_EQ(*future.proxy, "late-phi");
}

}  // namespace
}  // namespace ps::connectors
