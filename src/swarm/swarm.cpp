#include "swarm/swarm.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/hex.hpp"
#include "common/uuid.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"

namespace ps::swarm {

namespace {

void count(const std::string& name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::MetricsRegistry::ambient().counter(name).inc(n);
}

}  // namespace

SwarmConnector::SwarmConnector(std::vector<Backend> backends,
                               SwarmOptions options)
    : backends_(std::move(backends)), options_(options) {
  if (backends_.empty()) {
    throw ConnectorError("swarm: no backends configured");
  }
  for (const Backend& backend : backends_) {
    if (!backend.connector) {
      throw ConnectorError("swarm: null connector for '" + backend.name +
                           "'");
    }
    const auto count_name = std::count_if(
        backends_.begin(), backends_.end(),
        [&](const Backend& b) { return b.name == backend.name; });
    if (count_name != 1) {
      throw ConnectorError("swarm: duplicate backend name '" + backend.name +
                           "'");
    }
  }
  if (options_.chunk_size == 0) {
    throw ConnectorError("swarm: chunk_size must be positive");
  }
  options_.replication = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(options_.replication,
                                 static_cast<std::uint32_t>(
                                     backends_.size())));
  options_.pipeline_depth = std::max<std::uint32_t>(1, options_.pipeline_depth);
  executor_ = std::make_unique<core::AsyncExecutor>(core::AsyncExecutor::Options{
      .workers = std::max<std::size_t>(1, options_.fetch_workers),
      .max_queue = 1024});
}

core::ConnectorConfig SwarmConnector::config() const {
  core::ConnectorConfig cfg{.type = "swarm", .params = {}};
  cfg.params["count"] = std::to_string(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const std::string idx = std::to_string(i);
    cfg.params["name_" + idx] = backends_[i].name;
    cfg.params["connector_" + idx] =
        to_hex(serde::to_bytes(backends_[i].connector->config()));
  }
  cfg.params["chunk_size"] = std::to_string(options_.chunk_size);
  cfg.params["chunk_threshold"] = std::to_string(options_.chunk_threshold);
  cfg.params["replication"] = std::to_string(options_.replication);
  cfg.params["pipeline_depth"] = std::to_string(options_.pipeline_depth);
  cfg.params["fetch_workers"] = std::to_string(options_.fetch_workers);
  return cfg;
}

core::ConnectorTraits SwarmConnector::traits() const {
  core::ConnectorTraits t{.storage = "mixed",
                          .intra_site = false,
                          .inter_site = false,
                          .persistent = true};
  for (const Backend& backend : backends_) {
    const core::ConnectorTraits child = backend.connector->traits();
    t.intra_site = t.intra_site || child.intra_site;
    t.inter_site = t.inter_site || child.inter_site;
    t.persistent = t.persistent && child.persistent;
  }
  return t;
}

const Backend& SwarmConnector::backend_for(const core::Key& key) const {
  const std::string& name = key.field(kBackendField);
  for (const Backend& backend : backends_) {
    if (backend.name == name) return backend;
  }
  throw ConnectorError("swarm: key routed to unknown backend '" + name + "'");
}

core::Key SwarmConnector::put(BytesView data) {
  if (data.size() >= options_.chunk_threshold && backends_.size() > 0) {
    return put_chunked(data);
  }
  // Small object: pass through to one backend picked by content hash
  // (deterministic, directory-free), route gets back via the key.
  const std::size_t b = fnv1a64(data) % backends_.size();
  core::Key key = backends_[b].connector->put(data);
  key.meta[kBackendField] = backends_[b].name;
  return key;
}

core::Key SwarmConnector::put_chunked(BytesView data) {
  obs::SpanScope span("swarm.put", "", "swarm-fetch");
  const Manifest manifest = build_manifest(
      data, options_.chunk_size,
      static_cast<std::uint32_t>(backends_.size()), options_.replication,
      kHashBps);
  const Bytes manifest_bytes = serde::to_bytes(manifest);
  const core::Key manifest_key{
      .object_id = kManifestPrefix + Uuid::random().str(), .meta = {}};

  // Chunk lists per backend, from the manifest's placement.
  std::vector<std::vector<std::size_t>> placed(backends_.size());
  for (std::size_t c = 0; c < manifest.chunks.size(); ++c) {
    for (const std::uint32_t b : manifest.chunks[c].holders) {
      placed[b].push_back(c);
    }
  }

  // One placement job per backend: its chunk replicas plus a manifest
  // copy, written with addressed puts so every holder shares the
  // content-derived chunk keys. Futures are waited (merging completion
  // vtimes): a put is durable only once every replica landed.
  std::vector<core::Future<bool>> jobs;
  jobs.reserve(backends_.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    jobs.push_back(executor_->run<bool>([this, b, data, &placed, &manifest,
                                         &manifest_bytes, &manifest_key] {
      for (const std::size_t c : placed[b]) {
        const ChunkRef& ref = manifest.chunks[c];
        if (!backends_[b].connector->put_at(
                chunk_key(ref.hash), data.substr(ref.offset, ref.size))) {
          return false;
        }
      }
      return backends_[b].connector->put_at(manifest_key, manifest_bytes);
    }));
  }
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (!jobs[b].wait()) {
      throw ConnectorError("swarm: backend '" + backends_[b].name +
                           "' does not support addressed writes (put_at)");
    }
  }

  count("swarm.put.bytes", data.size());
  count("swarm.put.chunks", manifest.chunks.size());
  core::Key key = manifest_key;
  key.meta[kManifestField] = "1";
  return key;
}

std::optional<Manifest> SwarmConnector::manifest(const core::Key& key) const {
  const core::Key bare{.object_id = key.object_id, .meta = {}};
  // The manifest is replicated to every backend precisely so no single
  // replica gates the resolve: race all backends in vtime-parallel and
  // merge only the earliest valid completion into the caller's clock —
  // a slow, dead or damaged replica's manifest copy is simply outrun. (A
  // sequential probe here would hand a degraded backend the whole
  // resolve's latency before chunk scheduling could route around it.) The
  // waiter joins on a latch, not Future::wait, so losers' vtimes are never
  // merged. Each replica is decoded and checked inside its own probe: the
  // chunk scheduler indexes buffers and backends with the manifest's
  // offsets and holders, so an unchecked replica could make it return
  // wrong bytes or write out of bounds.
  struct Probe {
    double end_vtime = 0.0;
    std::optional<Manifest> value;
    bool invalid = false;
  };
  std::vector<Probe> probes(backends_.size());
  std::mutex mu;
  std::condition_variable done;
  std::size_t pending = backends_.size();
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    executor_->submit([this, b, &bare, &probes, &mu, &done, &pending] {
      Probe& probe = probes[b];
      std::optional<Bytes> raw;
      try {
        raw = backends_[b].connector->get(bare);
      } catch (const Error&) {
        // Unreachable backend: another replica serves the manifest.
      }
      probe.end_vtime = sim::vnow();
      if (raw) {
        try {
          Manifest decoded = serde::from_bytes<Manifest>(*raw);
          if (well_formed(decoded, backends_.size())) {
            probe.value = std::move(decoded);
          }
        } catch (const SerializationError&) {
          // Undecodable: as damaged as a malformed manifest.
        }
        probe.invalid = !probe.value;
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return pending == 0; });
  }
  std::size_t winner = backends_.size();
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (probes[b].invalid) count("swarm.manifest.invalid");
    if (!probes[b].value) continue;
    if (winner == backends_.size() ||
        probes[b].end_vtime < probes[winner].end_vtime) {
      winner = b;
    }
  }
  if (winner == backends_.size()) {
    // No valid copy anywhere: knowing that costs waiting for every response.
    double worst = 0.0;
    for (const Probe& probe : probes) worst = std::max(worst, probe.end_vtime);
    sim::vmerge(worst);
    return std::nullopt;
  }
  sim::vmerge(probes[winner].end_vtime);
  return std::move(probes[winner].value);
}

std::optional<Bytes> SwarmConnector::get_swarm(const core::Key& key) {
  obs::SpanScope span("swarm.get", key.object_id);
  sim::VtimeScope elapsed;
  const std::optional<Manifest> decoded = manifest(key);
  if (!decoded) return std::nullopt;
  ChunkScheduler scheduler(backends_, *decoded, options_, *executor_,
                           key.object_id);
  std::optional<Bytes> payload = scheduler.run();
  if (payload) {
    count("swarm.get.bytes", payload->size());
    if (obs::enabled()) {
      obs::MetricsRegistry::ambient()
          .histogram("swarm.get.vtime")
          .observe(elapsed.elapsed());
    }
  }
  return payload;
}

std::optional<Bytes> SwarmConnector::get(const core::Key& key) {
  if (key.meta.contains(kManifestField)) return get_swarm(key);
  if (key.meta.contains(kBackendField)) {
    return backend_for(key).connector->get(key);
  }
  // Foreign key (no swarm routing metadata): try every backend.
  for (const Backend& backend : backends_) {
    std::optional<Bytes> value = backend.connector->get(key);
    if (value) return value;
  }
  return std::nullopt;
}

bool SwarmConnector::exists(const core::Key& key) {
  if (key.meta.contains(kManifestField)) {
    const core::Key bare{.object_id = key.object_id, .meta = {}};
    for (const Backend& backend : backends_) {
      try {
        if (backend.connector->exists(bare)) return true;
      } catch (const Error&) {
      }
    }
    return false;
  }
  if (key.meta.contains(kBackendField)) {
    return backend_for(key).connector->exists(key);
  }
  for (const Backend& backend : backends_) {
    if (backend.connector->exists(key)) return true;
  }
  return false;
}

void SwarmConnector::evict(const core::Key& key) {
  if (key.meta.contains(kManifestField)) {
    const std::optional<Manifest> decoded_opt = manifest(key);
    const core::Key bare{.object_id = key.object_id, .meta = {}};
    if (decoded_opt) {
      // Manifest cleanup: group every chunk replica by holding backend and
      // issue one pipelined evict_batch per backend instead of one round
      // trip per (chunk, holder).
      const Manifest& decoded = *decoded_opt;
      std::vector<std::vector<core::Key>> per_backend(backends_.size());
      for (const ChunkRef& ref : decoded.chunks) {
        for (const std::uint32_t b : ref.holders) {
          per_backend[b].push_back(chunk_key(ref.hash));
        }
      }
      for (std::size_t b = 0; b < per_backend.size(); ++b) {
        if (per_backend[b].empty()) continue;
        backends_[b].connector->evict_batch(per_backend[b]);
      }
    }
    for (const Backend& backend : backends_) backend.connector->evict(bare);
    return;
  }
  if (key.meta.contains(kBackendField)) {
    backend_for(key).connector->evict(key);
    return;
  }
  for (const Backend& backend : backends_) backend.connector->evict(key);
}

void SwarmConnector::close() {
  for (const Backend& backend : backends_) backend.connector->close();
}

namespace {

std::shared_ptr<core::Connector> reconstruct_swarm(
    const core::ConnectorConfig& cfg) {
  const std::size_t count = std::stoul(cfg.param("count"));
  std::vector<Backend> backends;
  backends.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string idx = std::to_string(i);
    auto child_cfg = serde::from_bytes<core::ConnectorConfig>(
        from_hex(cfg.param("connector_" + idx)));
    backends.push_back(Backend{
        cfg.param("name_" + idx),
        core::ConnectorRegistry::instance().reconstruct(child_cfg)});
  }
  SwarmOptions options;
  options.chunk_size = std::stoull(cfg.param("chunk_size"));
  options.chunk_threshold = std::stoull(cfg.param("chunk_threshold"));
  options.replication =
      static_cast<std::uint32_t>(std::stoul(cfg.param("replication")));
  options.pipeline_depth =
      static_cast<std::uint32_t>(std::stoul(cfg.param("pipeline_depth")));
  options.fetch_workers = std::stoul(cfg.param("fetch_workers"));
  return std::make_shared<SwarmConnector>(std::move(backends), options);
}

const core::ConnectorRegistration kRegisterSwarm("swarm", &reconstruct_swarm);

}  // namespace

}  // namespace ps::swarm
