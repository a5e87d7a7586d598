#include "swarm/manifest.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "sim/vtime.hpp"

namespace ps::swarm {

core::Key chunk_key(const std::string& hash) {
  return core::Key{.object_id = kChunkPrefix + hash, .meta = {}};
}

bool well_formed(const Manifest& manifest, std::size_t backend_count) {
  const auto lower_hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  std::uint64_t next = 0;  // invariant: next <= total_size
  for (const ChunkRef& chunk : manifest.chunks) {
    if (chunk.offset != next || chunk.size == 0 ||
        chunk.size > manifest.chunk_size ||
        chunk.size > manifest.total_size - next) {
      return false;
    }
    next += chunk.size;
    if (chunk.holders.empty()) return false;
    for (const std::uint32_t holder : chunk.holders) {
      if (holder >= backend_count) return false;
    }
    if (chunk.hash.size() != 64 ||
        !std::all_of(chunk.hash.begin(), chunk.hash.end(), lower_hex)) {
      return false;
    }
  }
  return next == manifest.total_size;
}

Manifest build_manifest(BytesView data, std::uint64_t chunk_size,
                        std::uint32_t backend_count, std::uint32_t replication,
                        double hash_Bps) {
  if (chunk_size == 0) throw Error("swarm: chunk_size must be positive");
  if (backend_count == 0) throw Error("swarm: no backends to place onto");
  replication = std::min(replication, backend_count);
  replication = std::max<std::uint32_t>(replication, 1);

  // Chunks hash on all cores at once: hashing is most of a put's CPU. The
  // modelled charge stays on the caller, one vadvance per chunk in chunk
  // order, so virtual time is the same however many cores did the work.
  const std::size_t count = data.size() / chunk_size +
                            (data.size() % chunk_size != 0 ? 1 : 0);
  std::vector<std::string> hashes(count);
  parallel_for(0, count, [&](std::size_t c) {
    hashes[c] = Sha256::hex_digest(data.substr(c * chunk_size, chunk_size));
  });

  Manifest manifest;
  manifest.total_size = data.size();
  manifest.chunk_size = chunk_size;
  manifest.chunks.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint64_t offset = c * chunk_size;
    const std::uint64_t size =
        std::min<std::uint64_t>(chunk_size, data.size() - offset);
    if (hash_Bps > 0) {
      sim::vadvance(static_cast<double>(size) / hash_Bps);
    }
    ChunkRef chunk{.hash = std::move(hashes[c]),
                   .size = size,
                   .offset = offset,
                   .holders = {}};
    // Rendezvous placement: consecutive backends starting at a hash-derived
    // index. Deterministic per chunk, balanced across the key space.
    const std::uint64_t base = fnv1a64(chunk.hash);
    chunk.holders.reserve(replication);
    for (std::uint32_t r = 0; r < replication; ++r) {
      chunk.holders.push_back(
          static_cast<std::uint32_t>((base + r) % backend_count));
    }
    manifest.chunks.push_back(std::move(chunk));
  }
  return manifest;
}

}  // namespace ps::swarm
