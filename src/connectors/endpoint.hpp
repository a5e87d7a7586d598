// EndpointConnector (paper section 4.2.2).
//
// Clients interact with their site-local PS-endpoint; object keys are
// (object_id, endpoint_id). A request whose key names another endpoint is
// forwarded by the local endpoint over a peer connection, so producers and
// consumers at different sites exchange data without either talking to a
// remote server directly (Figure 3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/connector.hpp"
#include "endpoint/endpoint.hpp"

namespace ps::connectors {

class EndpointConnector : public core::Connector {
 public:
  /// `addresses`: service addresses ("psep://host/name") of the endpoints
  /// participating in the deployment, one per site. The connector binds to
  /// the endpoint co-located with the current host (or, failing that, one
  /// in the same site).
  explicit EndpointConnector(std::vector<std::string> addresses);

  std::string type() const override { return "endpoint"; }
  core::ConnectorConfig config() const override;
  core::ConnectorTraits traits() const override;

  core::Key put(BytesView data) override;
  std::optional<Bytes> get(const core::Key& key) override;
  /// Pipelined bulk get: the whole batch shares one pair of client<->
  /// endpoint transfer legs instead of one round trip per key.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<core::Key>& keys) override;
  bool exists(const core::Key& key) override;
  void evict(const core::Key& key) override;
  bool put_at(const core::Key& key, BytesView data) override;
  core::Key reserve_key() override;

  /// The endpoint this connector talks to.
  endpoint::Endpoint& home() { return *home_; }

 private:
  /// Issues `request` to the home endpoint, charging the client<->endpoint
  /// legs of the round trip.
  endpoint::EndpointResponse round_trip(endpoint::EndpointRequest request,
                                        std::size_t response_hint);

  std::vector<std::string> addresses_;
  std::shared_ptr<endpoint::Endpoint> home_;
};

}  // namespace ps::connectors
