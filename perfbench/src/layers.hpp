// Calls into single layers, shared by the workloads and the traced run:
// the spanned task hand-off, the replays that time a layer's public calls on
// a workload's own inputs, and the layer tour that reaches layers a workload
// does not exercise itself.
#pragma once

#include <optional>
#include <vector>

#include "bench.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"

namespace pb {

/// One task hand-off of the object under `key`: proxy_from_key, serialize
/// the proxy, deserialize it as the receiving task would, first deref, then
/// three cached derefs, each under its own span.
struct Handoff {
  std::optional<ps::core::Proxy<ps::Bytes>> task;
  const ps::Bytes* value = nullptr;  // owned by task's resolved state
  bool stable = true;                // cached derefs returned the same object
};
Handoff handoff(ps::core::Store& store, const ps::core::Key& key);

/// ObjectCache::get on resident keys, in the workload's key order (ns/call).
double replay_cache_hit_ns(const ReplayInputs& in);

/// MetricsRegistry::ambient().counter(name) for the store's hot-path names,
/// from two threads at once (ns/call).
double replay_counter_lookup_ns();

/// Histogram::observe of the workload's own per-op wall samples (ns/call).
double replay_observe_ns(const std::vector<double>& samples_s);

/// PipelinedChannel::transact with the workload's object sizes as request
/// and response transfer costs (ns/call).
double replay_channel_transact_ns(const ReplayInputs& in);

/// Sha256::digest over the workload's objects, cut into its chunk size.
double replay_sha256_mb_per_s(const ReplayInputs& in);

/// Puts, gets and hands off the workload's objects through a traced
/// LocalConnector store, a RedisConnector store and a SwarmConnector store,
/// so every layer span is recorded on every workload's own inputs. Throws
/// when an object comes back altered.
void tour_layers(const ReplayInputs& in);

}  // namespace pb
