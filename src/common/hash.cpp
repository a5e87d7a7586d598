#include "common/hash.hpp"

#include <algorithm>
#include <cstring>

#include "common/hex.hpp"
#include "common/sha256_kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PS_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define PS_SHA256_X86 0
#endif

namespace ps {

std::uint64_t fnv1a64(BytesView data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

void blocks_portable(std::uint32_t* state, const std::uint8_t* block,
                     std::size_t count) {
  for (; count > 0; --count, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if PS_SHA256_X86

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  const bool sha = (b & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

// SHA-NI compression: sha256rnds2 runs two rounds on the state split into
// ABEF/CDGH halves; sha256msg1/msg2 extend the message schedule four words
// at a time. The target attribute enables the instructions for this
// function only, so the build needs no -msha and the kernel is only
// reached after cpu_has_shani() said yes.
__attribute__((target("sha,sse4.1"))) void blocks_shani(
    std::uint32_t* state, const std::uint8_t* block, std::size_t count) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; count > 0; --count, block += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds schedule words 4g..4g+3 while rounds 4g..4g+3 run.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& m = w[g & 3];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
            bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        m = _mm_sha256msg1_epu32(m, w[(g + 1) & 3]);
        m = _mm_add_epi32(
            m, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#else

bool cpu_has_shani() { return false; }

void blocks_shani(std::uint32_t* state, const std::uint8_t* block,
                  std::size_t count) {
  blocks_portable(state, block, count);
}

#endif

}  // namespace

void Sha256Kernels::portable(std::uint32_t* state, const std::uint8_t* blocks,
                             std::size_t count) {
  blocks_portable(state, blocks, count);
}

bool Sha256Kernels::shani_supported() { return cpu_has_shani(); }

void Sha256Kernels::shani(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count) {
  blocks_shani(state, blocks, count);
}

Sha256Kernels::BlockFn Sha256Kernels::selected() {
  static const BlockFn kernel = cpu_has_shani() ? &shani : &portable;
  return kernel;
}

Sha256::Sha256() : Sha256(Sha256Kernels::selected()) {}

Sha256::Sha256(BlockFn kernel)
    : kernel_(kernel), state_(kInitialState), buffer_{} {}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  const auto* in = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t size = data.size();
  total_bytes_ += size;
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    size -= take;
    if (buffered_ < 64) return;
    kernel_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block of this update in one kernel call.
  const std::size_t blocks = size / 64;
  if (blocks > 0) {
    kernel_(state_.data(), in, blocks);
    in += blocks * 64;
    size -= blocks * 64;
  }
  if (size > 0) {
    std::memcpy(buffer_.data(), in, size);
    buffered_ = size;
  }
}

std::array<std::uint8_t, 32> Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // 0x80, zeros until the length is 56 mod 64, then the 64-bit big-endian
  // bit count: at most 1 + 63 + 8 bytes.
  std::uint8_t pad[72] = {0x80};
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[1 + zeros + i] =
        static_cast<std::uint8_t>((bit_len >> (56 - 8 * i)) & 0xff);
  }
  update(BytesView(reinterpret_cast<const char*>(pad), 1 + zeros + 8));

  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, 32> Sha256::digest(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string Sha256::hex_digest(BytesView data) {
  const auto d = digest(data);
  return to_hex(BytesView(reinterpret_cast<const char*>(d.data()), d.size()));
}

}  // namespace ps
