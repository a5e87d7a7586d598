// Hashing utilities: FNV-1a (fast fingerprints) and SHA-256 (content
// addressing: IPFS content ids, and the swarm's chunk names and per-chunk
// verification on every bulk put and get).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace ps {

/// 64-bit FNV-1a over a byte string. Fast, non-cryptographic.
std::uint64_t fnv1a64(BytesView data);

/// Incremental SHA-256 (FIPS 180-4). Whole blocks go to a compression
/// kernel chosen once per process: the x86 SHA extensions when the CPU has
/// them, a portable loop otherwise (common/sha256_kernels.hpp).
class Sha256 {
 public:
  Sha256();

  /// Absorbs `data` into the running digest.
  void update(BytesView data);

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated after finalization.
  std::array<std::uint8_t, 32> finish();

  /// One-shot digest of `data`.
  static std::array<std::uint8_t, 32> digest(BytesView data);

  /// One-shot digest rendered as lowercase hex.
  static std::string hex_digest(BytesView data);

 private:
  friend class Sha256Kernels;
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                           std::size_t count);

  explicit Sha256(BlockFn kernel);

  BlockFn kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ps
