// Internal: the SHA-256 compression kernels behind ps::Sha256.
//
// Two kernels fold whole 64-byte blocks into the eight-word state: a
// portable FIPS 180-4 loop, and one on the x86 SHA extensions (SHA-NI).
// Sha256 picks one once per process from CPUID and never offers a choice;
// this header exists so the differential test can pin each kernel and
// compare them on identical input. Library code outside common/hash.cpp
// should use common/hash.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.hpp"

namespace ps {

class Sha256Kernels {
 public:
  using BlockFn = Sha256::BlockFn;

  /// Portable kernel: any CPU.
  static void portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count);

  /// True when this CPU executes the SHA-NI kernel.
  static bool shani_supported();

  /// SHA-NI kernel. Call only when shani_supported().
  static void shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t count);

  /// The kernel every default-constructed Sha256 uses: SHA-NI when
  /// supported, portable otherwise. Decided on first use.
  static BlockFn selected();

  /// A hasher pinned to `kernel`, whatever the CPU picked.
  static Sha256 hasher(BlockFn kernel) { return Sha256(kernel); }
};

}  // namespace ps
