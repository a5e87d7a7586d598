// SwarmConnector: multi-source bulk payload resolution over N backends.
//
// The source paper's Fig. 5 lesson is that bulk transfers are bandwidth
// bound — whoever moves bytes better wins at large sizes. SwarmConnector
// layers over N existing connectors (kv-backed stores, endpoints, local
// channels, even Multi stacks) and turns a bulk put into content-addressed
// chunks scattered across the backends with a replicated manifest; get
// fetches the manifest and hands the chunk list to a ChunkScheduler that
// pulls from every replica in parallel, verifies each chunk's SHA-256,
// and routes around corrupt, missing or slow sources (swarm/scheduler.hpp).
// A Proxy<T> over a swarm-backed Store therefore resolves at aggregate
// bandwidth transparently — the proxy, key and deserialization path are
// unchanged.
//
// Payloads under the chunk threshold pass through untouched to a single
// backend chosen by content hash, with the backend recorded in the key
// (the same routing-field trick MultiConnector uses), so a swarm Store is
// usable for small objects without paying manifest overhead.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/async.hpp"
#include "core/connector.hpp"
#include "swarm/manifest.hpp"
#include "swarm/scheduler.hpp"

namespace ps::swarm {

class SwarmConnector : public core::Connector {
 public:
  /// All backends must support addressed writes (put_at) — chunk keys are
  /// content-derived, not backend-minted. Throws ConnectorError on an
  /// empty or duplicate-named backend list.
  explicit SwarmConnector(std::vector<Backend> backends,
                          SwarmOptions options = {});

  std::string type() const override { return "swarm"; }
  core::ConnectorConfig config() const override;
  core::ConnectorTraits traits() const override;

  core::Key put(BytesView data) override;
  std::optional<Bytes> get(const core::Key& key) override;
  bool exists(const core::Key& key) override;
  /// Evicts the manifest everywhere and each chunk from its holders. Note:
  /// chunks are content-addressed and therefore shared between identical
  /// payloads; evicting one payload evicts shared chunks too (a refcounting
  /// chunk store is future work — the trade is documented in DESIGN.md §13).
  void evict(const core::Key& key) override;
  void close() override;

  /// The decoded manifest behind a swarm key, or nullopt. Races every
  /// backend and keeps the earliest replica that decodes and passes
  /// well_formed(); a damaged replica counts as unreachable. Tools and
  /// tests use this to reach into placement.
  std::optional<Manifest> manifest(const core::Key& key) const;

  const std::vector<Backend>& backends() const { return backends_; }
  const SwarmOptions& options() const { return options_; }

 private:
  core::Key put_chunked(BytesView data);
  std::optional<Bytes> get_swarm(const core::Key& key);
  const Backend& backend_for(const core::Key& key) const;

  std::vector<Backend> backends_;
  SwarmOptions options_;
  /// Private pool for chunk waves: a swarm resolve may itself run on the
  /// *shared* executor (Proxy::resolve_async, the faas resolve-ahead), so
  /// scheduling its waves there too could deadlock the pool against itself
  /// under concurrent resolves.
  std::unique_ptr<core::AsyncExecutor> executor_;
};

}  // namespace ps::swarm
