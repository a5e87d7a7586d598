// SHA-256 against the FIPS 180-4 / NIST CAVP reference vectors, with the
// incremental update() path exercised across every interesting split
// boundary: the 55/56-byte padding edge (where the length field no longer
// fits the final block) and the 64-byte block edge. The swarm subsystem
// trusts these digests for chunk identity and verification, so the
// one-shot and chunked paths must agree bit-for-bit. The Sha256Kernels
// cases pin the SHA-NI and portable compression kernels against each
// other on identical input.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/sha256_kernels.hpp"

namespace ps {
namespace {

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

TEST(Sha256, Fips180EmptyMessage) {
  EXPECT_EQ(
      Sha256::hex_digest(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180OneByte) {
  // NIST CAVP SHA256ShortMsg, Len = 8, Msg = 0xd3.
  EXPECT_EQ(
      Sha256::hex_digest(Bytes(1, static_cast<char>(0xd3))),
      "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(
      Sha256::hex_digest("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  // FIPS 180-4 example 2: 56 bytes, forcing the length into a second block.
  EXPECT_EQ(
      Sha256::hex_digest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, Fips180FourBlockMessage) {
  // FIPS 180-4 SHA-512 example message (112 bytes), SHA-256 digest.
  EXPECT_EQ(
      Sha256::hex_digest(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
          "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, Fips180MillionA) {
  EXPECT_EQ(
      Sha256::hex_digest(Bytes(1'000'000, 'a')),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingEdgeLengths) {
  // 55 bytes: padding + 8-byte length exactly fill one block. 56 and 64
  // straddle the block boundary in the two other interesting ways. These
  // digests are pinned (computed with coreutils sha256sum) so a padding
  // regression cannot hide behind chunked-vs-one-shot self-consistency.
  EXPECT_EQ(
      Sha256::hex_digest(Bytes(55, 'x')),
      "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
  EXPECT_EQ(
      Sha256::hex_digest(Bytes(56, 'x')),
      "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
  EXPECT_EQ(
      Sha256::hex_digest(Bytes(64, 'x')),
      "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
}

TEST(Sha256, IncrementalMatchesOneShotAcrossSplitBoundaries) {
  // 200 bytes of varied content split at every boundary around the padding
  // and block edges, plus degenerate 0/1-byte prefixes: the streaming
  // update() path must agree with the one-shot digest regardless of how
  // the bytes arrive — exactly what swarm chunk verification relies on.
  Bytes data;
  for (int i = 0; i < 200; ++i) data.push_back(static_cast<char>(i * 7 + 3));
  const auto reference = Sha256::digest(data);
  for (const std::size_t split :
       std::vector<std::size_t>{0, 1, 54, 55, 56, 63, 64, 65, 127, 128, 199,
                                200}) {
    Sha256 hasher;
    hasher.update(BytesView(data).substr(0, split));
    hasher.update(BytesView(data).substr(split));
    EXPECT_EQ(hex(hasher.finish()), hex(reference)) << "split=" << split;
  }
}

TEST(Sha256, IncrementalManySmallUpdates) {
  // Byte-at-a-time absorption crosses the internal 64-byte buffer dozens
  // of times; the digest must match the one-shot result.
  const Bytes data = pattern_bytes(1000, 42);
  Sha256 hasher;
  for (const char byte : data) hasher.update(BytesView(&byte, 1));
  EXPECT_EQ(hex(hasher.finish()), Sha256::hex_digest(data));
}

TEST(Sha256, ChunkedThreeWaySplit) {
  // Multi-block updates that each end mid-block.
  const Bytes data = pattern_bytes(500, 7);
  Sha256 hasher;
  hasher.update(BytesView(data).substr(0, 100));
  hasher.update(BytesView(data).substr(100, 300));
  hasher.update(BytesView(data).substr(400));
  EXPECT_EQ(hex(hasher.finish()), Sha256::hex_digest(data));
}

TEST(Sha256Kernels, SelectedKernelFollowsCpu) {
  EXPECT_EQ(Sha256Kernels::selected(), Sha256Kernels::shani_supported()
                                           ? &Sha256Kernels::shani
                                           : &Sha256Kernels::portable);
}

/// Digest of `parts` absorbed one update() each by a hasher pinned to
/// `kernel`.
std::string kernel_digest(Sha256Kernels::BlockFn kernel,
                          const std::vector<BytesView>& parts) {
  Sha256 hasher = Sha256Kernels::hasher(kernel);
  for (const BytesView part : parts) hasher.update(part);
  return hex(hasher.finish());
}

class Sha256KernelDiff : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Sha256Kernels::shani_supported()) {
      GTEST_SKIP() << "CPU has no SHA extensions";
    }
  }

  /// Both kernels digest `parts` and agree; returns the shared digest.
  static std::string both(const std::vector<BytesView>& parts) {
    const std::string shani = kernel_digest(&Sha256Kernels::shani, parts);
    EXPECT_EQ(shani, kernel_digest(&Sha256Kernels::portable, parts));
    return shani;
  }
};

TEST_F(Sha256KernelDiff, EveryLengthUpTo300) {
  const Bytes data = pattern_bytes(300, 77);
  for (std::size_t len = 0; len <= 300; ++len) {
    SCOPED_TRACE("len=" + std::to_string(len));
    both({BytesView(data).substr(0, len)});
  }
}

TEST_F(Sha256KernelDiff, TwoPartSplits) {
  const Bytes data = pattern_bytes(300, 91);
  const std::string whole = both({data});
  for (const std::size_t split :
       std::vector<std::size_t>{0, 1, 55, 56, 63, 64, 65, 127, 128}) {
    SCOPED_TRACE("split=" + std::to_string(split));
    EXPECT_EQ(both({BytesView(data).substr(0, split),
                    BytesView(data).substr(split)}),
              whole);
  }
}

TEST_F(Sha256KernelDiff, FourMegabyteChunk) {
  // One swarm chunk's worth: a single update() hands the kernel 65536
  // blocks in one call.
  const Bytes chunk = pattern_bytes(4u << 20, 5);
  EXPECT_EQ(both({chunk}), Sha256::hex_digest(chunk));
}

TEST_F(Sha256KernelDiff, IncrementalMillionA) {
  // Uneven 997-byte updates: most straddle a block boundary, so the
  // buffered partial block and the whole-block path alternate.
  const Bytes data(1'000'000, 'a');
  std::vector<BytesView> parts;
  for (std::size_t at = 0; at < data.size(); at += 997) {
    parts.push_back(BytesView(data).substr(at, 997));
  }
  EXPECT_EQ(both(parts),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

}  // namespace
}  // namespace ps
