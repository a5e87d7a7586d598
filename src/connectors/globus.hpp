// GlobusConnector (paper section 4.2.1): extends file-based mediation to
// inter-site transfers through the Globus transfer service.
//
// The connector is configured with a set of endpoints; a put serializes the
// object to the endpoint matching the producing host and submits transfer
// tasks to every other endpoint. Keys are (object_id, per-destination task
// ids); a resolving proxy waits for the transfer task covering its host to
// succeed before reading, or raises TransferError. put_batch submits all
// objects in a single Globus transfer per destination.
#pragma once

#include <regex>
#include <string>
#include <vector>

#include "core/connector.hpp"
#include "globus/transfer.hpp"

namespace ps::connectors {

struct GlobusEndpointSpec {
  /// Regular expression matched against the current fabric host name
  /// (the hostname-pattern mapping of the paper).
  std::string host_pattern;
  Uuid endpoint;
};

class GlobusConnector : public core::Connector {
 public:
  explicit GlobusConnector(std::vector<GlobusEndpointSpec> endpoints);

  std::string type() const override { return "globus"; }
  core::ConnectorConfig config() const override;
  core::ConnectorTraits traits() const override;

  core::Key put(BytesView data) override;
  std::vector<core::Key> put_batch(const std::vector<Bytes>& items) override;
  std::optional<Bytes> get(const core::Key& key) override;
  bool exists(const core::Key& key) override;
  void evict(const core::Key& key) override;

 private:
  /// The configured endpoint whose pattern matches the current host.
  const GlobusEndpointSpec& local_endpoint() const;

  std::vector<GlobusEndpointSpec> endpoints_;
  /// endpoints_[i].host_pattern, compiled once: building a std::regex
  /// writes libstdc++'s shared ctype cache, which races across threads.
  std::vector<std::regex> host_patterns_;
  std::shared_ptr<globus::TransferService> service_;
};

}  // namespace ps::connectors
