// Swarm manifests: the content-addressed inventory of one chunked payload.
//
// A bulk put splits the payload into fixed-size chunks, names each chunk by
// the SHA-256 of its bytes, and records the chunk list — hash, size, byte
// offset, and which backends hold a replica — in a Manifest. The manifest
// itself is small (a few hundred bytes per GB of payload), so it is
// replicated to every backend; chunks are scattered by rendezvous placement
// on the chunk hash, which is deterministic, balanced in expectation, and
// free of any placement directory. Content addressing buys verification
// (every fetched chunk is re-hashed before acceptance) and deduplication
// (identical chunks share one key) at once.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "core/key.hpp"
#include "serde/serde.hpp"

namespace ps::swarm {

/// Key-space prefixes. Chunk ids embed the content hash; manifest ids are
/// random UUIDs (two puts of the same payload share chunks, not manifests).
inline constexpr const char* kManifestPrefix = "ps.swarm.manifest/";
inline constexpr const char* kChunkPrefix = "ps.swarm.chunk/";

/// Key meta fields stamped by SwarmConnector: kManifestField marks a key
/// whose object is a serialized Manifest (the swarm resolve path);
/// kBackendField routes a small pass-through object back to the backend
/// that stored it (mirrors MultiConnector's child routing field).
inline constexpr const char* kManifestField = "swarm";
inline constexpr const char* kBackendField = "swarm_backend";

/// One chunk of a chunked payload.
struct ChunkRef {
  std::string hash;           // lowercase sha256 hex of the chunk bytes
  std::uint64_t size = 0;     // bytes in this chunk (last may be short)
  std::uint64_t offset = 0;   // byte offset in the reassembled payload
  /// Backend indices (into the connector's backend list) holding a replica.
  std::vector<std::uint32_t> holders;

  bool operator==(const ChunkRef&) const = default;

  auto serde_members() { return std::tie(hash, size, offset, holders); }
  auto serde_members() const { return std::tie(hash, size, offset, holders); }
};

struct Manifest {
  std::uint64_t total_size = 0;
  std::uint64_t chunk_size = 0;
  std::vector<ChunkRef> chunks;

  bool operator==(const Manifest&) const = default;

  auto serde_members() { return std::tie(total_size, chunk_size, chunks); }
  auto serde_members() const {
    return std::tie(total_size, chunk_size, chunks);
  }
};

/// The content-addressed key a chunk is stored under on every holder.
core::Key chunk_key(const std::string& hash);

/// True when `manifest` is safe to schedule over `backend_count` backends:
/// its chunks tile [0, total_size) in order, each chunk's size is in
/// (0, chunk_size], each has at least one holder and every holder indexes a
/// backend, and each hash is 64 lowercase hex digits. A manifest read back
/// from a backend that fails this was damaged in storage or in transit.
bool well_formed(const Manifest& manifest, std::size_t backend_count);

/// Splits `data` into `chunk_size` pieces, hashes them in parallel
/// (charging the caller `size / hash_Bps` virtual seconds per chunk, in
/// chunk order — hashing is real compute on the critical path), and assigns
/// `replication` distinct holders per chunk by rendezvous on the chunk hash
/// across `backend_count` backends.
Manifest build_manifest(BytesView data, std::uint64_t chunk_size,
                        std::uint32_t backend_count, std::uint32_t replication,
                        double hash_Bps);

}  // namespace ps::swarm
