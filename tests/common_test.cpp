#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/hex.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/uuid.hpp"

namespace ps {
namespace {

// ---------------------------------------------------------------- bytes ----

TEST(Bytes, PatternIsDeterministic) {
  EXPECT_EQ(pattern_bytes(100, 7), pattern_bytes(100, 7));
  EXPECT_NE(pattern_bytes(100, 7), pattern_bytes(100, 8));
}

TEST(Bytes, PatternCheckAcceptsMatchingPayload) {
  const Bytes data = pattern_bytes(1031, 42);
  EXPECT_TRUE(check_pattern(data, 42));
  EXPECT_FALSE(check_pattern(data, 43));
}

TEST(Bytes, PatternCheckRejectsCorruption) {
  Bytes data = pattern_bytes(64, 1);
  data[10] = static_cast<char>(data[10] + 1);
  EXPECT_FALSE(check_pattern(data, 1));
}

TEST(Bytes, PatternHandlesNonMultipleOfEightLengths) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    EXPECT_EQ(pattern_bytes(n, 3).size(), n);
    EXPECT_TRUE(check_pattern(pattern_bytes(n, 3), 3));
  }
}

TEST(Bytes, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KiB");
  EXPECT_EQ(format_bytes(1024.0 * 1024 * 3), "3 MiB");
}

TEST(Bytes, ParseSize) {
  EXPECT_EQ(parse_size("10B"), 10u);
  EXPECT_EQ(parse_size("1KB"), 1000u);
  EXPECT_EQ(parse_size("100MB"), 100000000u);
  EXPECT_EQ(parse_size("1GB"), 1000000000u);
  EXPECT_EQ(parse_size("4KiB"), 4096u);
  EXPECT_EQ(parse_size("42"), 42u);
}

TEST(Bytes, ParseSizeRejectsJunk) {
  EXPECT_THROW(parse_size("abc"), std::invalid_argument);
  EXPECT_THROW(parse_size("10XB"), std::invalid_argument);
}

// ----------------------------------------------------------------- hash ----

TEST(Hash, Fnv1a64KnownValues) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, Sha256KnownVectors) {
  // FIPS 180-4 / NIST test vectors.
  EXPECT_EQ(
      Sha256::hex_digest(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::hex_digest("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::hex_digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                         "nopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Hash, Sha256IncrementalMatchesOneShot) {
  const Bytes data = pattern_bytes(100000, 5);
  Sha256 incremental;
  // Feed in awkward chunk sizes to cross block boundaries.
  std::size_t offset = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 1000, 31337};
  for (const std::size_t c : chunks) {
    incremental.update(BytesView(data).substr(offset, c));
    offset += c;
  }
  incremental.update(BytesView(data).substr(offset));
  EXPECT_EQ(incremental.finish(), Sha256::digest(data));
}

TEST(Hash, Sha256MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finish();
  EXPECT_EQ(
      to_hex(BytesView(reinterpret_cast<const char*>(digest.data()), 32)),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// ------------------------------------------------------------------ hex ----

TEST(Hex, RoundTrip) {
  const Bytes data = pattern_bytes(257, 9);
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(Hex, KnownEncoding) {
  EXPECT_EQ(to_hex(Bytes("\x00\xff\x10", 3)), "00ff10");
  EXPECT_EQ(from_hex("00ff10"), Bytes("\x00\xff\x10", 3));
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

// ----------------------------------------------------------------- uuid ----

TEST(Uuid, RandomIsUnique) {
  std::set<Uuid> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(Uuid::random()).second);
  }
}

TEST(Uuid, RoundTripString) {
  for (int i = 0; i < 100; ++i) {
    const Uuid u = Uuid::random();
    EXPECT_EQ(Uuid::parse(u.str()), u);
  }
}

TEST(Uuid, StringFormat) {
  const Uuid u = Uuid::random();
  const std::string s = u.str();
  ASSERT_EQ(s.size(), 36u);
  EXPECT_EQ(s[8], '-');
  EXPECT_EQ(s[13], '-');
  EXPECT_EQ(s[18], '-');
  EXPECT_EQ(s[23], '-');
  EXPECT_EQ(s[14], '4');  // version nibble
}

TEST(Uuid, NilAndComparisons) {
  const Uuid nil;
  EXPECT_TRUE(nil.is_nil());
  EXPECT_FALSE(Uuid::random().is_nil());
  EXPECT_EQ(nil, Uuid(0, 0));
  EXPECT_LT(Uuid(0, 1), Uuid(1, 0));
}

TEST(Uuid, ParseRejectsMalformed) {
  EXPECT_THROW(Uuid::parse("not-a-uuid"), std::invalid_argument);
  EXPECT_THROW(Uuid::parse("00000000000000000000000000000000"),
               std::invalid_argument);
  EXPECT_THROW(Uuid::parse("0000000g-0000-4000-8000-000000000000"),
               std::invalid_argument);
}

TEST(Uuid, ThreadedGenerationIsUnique) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Uuid>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      for (int i = 0; i < kPerThread; ++i) {
        results[static_cast<std::size_t>(t)].push_back(Uuid::random());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<Uuid> all;
  for (const auto& batch : results) {
    for (const Uuid& u : batch) EXPECT_TRUE(all.insert(u).second);
  }
}

// ---------------------------------------------------------------- queue ----

TEST(Queue, FifoOrder) {
  Queue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(Queue, TryPopEmptyReturnsNullopt) {
  Queue<int> q;
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(Queue, CloseWakesConsumers) {
  Queue<int> q;
  std::thread consumer([&q] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  consumer.join();
}

TEST(Queue, CloseDrainsRemainingItems) {
  Queue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(Queue, BoundedCapacityTryPush) {
  Queue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(Queue, PopForTimesOut) {
  Queue<int> q;
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10)), std::nullopt);
}

TEST(Queue, MpmcStress) {
  Queue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 5000;
  std::atomic<long> total{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) q.push(p * kItemsEach + i);
    });
  }
  std::atomic<int> consumed{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.pop()) {
        total += *item;
        ++consumed;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  EXPECT_EQ(consumed.load(), kProducers * kItemsEach);
  const long expected =
      static_cast<long>(kProducers) * kItemsEach * (kProducers * kItemsEach - 1) / 2;
  EXPECT_EQ(total.load(), expected);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(Rng, JitterHasUnitMedianScale) {
  Rng rng(7);
  int above = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (rng.jitter(0.3) > 1.0) ++above;
  }
  // Median of lognormal(0, sigma) is 1, so about half above.
  EXPECT_NEAR(static_cast<double>(above) / kN, 0.5, 0.05);
}

TEST(Rng, SampleIndicesDistinctSorted) {
  Rng rng(11);
  const auto idx = rng.sample_indices(100, 10);
  ASSERT_EQ(idx.size(), 10u);
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_LT(idx[i - 1], idx[i]);
    EXPECT_LT(idx[i], 100u);
  }
}

TEST(Rng, SampleIndicesClampedToN) {
  Rng rng(11);
  EXPECT_EQ(rng.sample_indices(3, 10).size(), 3u);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, MeanStdev) {
  Stats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MedianAndPercentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
}

TEST(Stats, EmptyIsSafe) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

TEST(Stats, SingleSampleStdevZero) {
  Stats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.stdev(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.5);
}

TEST(Stats, ReserveAndDoublingGrowthKeepSamples) {
  Stats s;
  s.reserve(1000);
  const double* data_before = s.samples().data();
  for (int i = 0; i < 1000; ++i) s.add(i);
  // Pre-sized accumulation never reallocated.
  EXPECT_EQ(s.samples().data(), data_before);
  EXPECT_EQ(s.count(), 1000u);
  // Growth past the reservation doubles rather than reallocating per add.
  for (int i = 1000; i < 5000; ++i) s.add(i);
  EXPECT_EQ(s.count(), 5000u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 4999.0);
}

TEST(Stats, NamedPercentileShortcuts) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.p50(), s.percentile(50.0));
  EXPECT_DOUBLE_EQ(s.p95(), s.percentile(95.0));
  EXPECT_DOUBLE_EQ(s.p99(), s.percentile(99.0));
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
}

TEST(Stats, QuantileAndP999TrackPercentile) {
  Stats s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), s.percentile(50.0));
  EXPECT_DOUBLE_EQ(s.quantile(0.999), s.percentile(99.9));
  EXPECT_DOUBLE_EQ(s.p999(), s.percentile(99.9));
  EXPECT_NEAR(s.p999(), 999.0, 1.5);
  EXPECT_GE(s.p999(), s.p99());
  EXPECT_THROW(s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.1), std::invalid_argument);
}

TEST(Stats, FormatsMeanPmStdev) {
  Stats s;
  s.add(0.001);
  s.add(0.003);
  EXPECT_EQ(s.mean_pm_stdev(1000.0, 1), "2.0 ± 1.4");
}

}  // namespace
}  // namespace ps
