#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"
#include "serde/serde.hpp"

namespace ps::serde {
namespace {

template <typename T>
void expect_round_trip(const T& value) {
  const Bytes encoded = to_bytes(value);
  EXPECT_EQ(from_bytes<T>(encoded), value);
}

TEST(Serde, Scalars) {
  expect_round_trip<std::int8_t>(-5);
  expect_round_trip<std::uint8_t>(200);
  expect_round_trip<std::int32_t>(-123456);
  expect_round_trip<std::uint64_t>(0xdeadbeefcafef00dULL);
  expect_round_trip<float>(3.25f);
  expect_round_trip<double>(-2.5e300);
  expect_round_trip<bool>(true);
  expect_round_trip<bool>(false);
}

enum class Color : std::uint8_t { kRed = 1, kGreen = 2, kBlue = 3 };

TEST(Serde, Enums) { expect_round_trip(Color::kGreen); }

TEST(Serde, Strings) {
  expect_round_trip(std::string{});
  expect_round_trip(std::string("hello"));
  expect_round_trip(pattern_bytes(10000, 3));  // binary-safe
  std::string embedded_null("a\0b", 3);
  expect_round_trip(embedded_null);
}

TEST(Serde, Uuid) {
  expect_round_trip(Uuid::random());
  expect_round_trip(Uuid{});
}

TEST(Serde, Durations) {
  expect_round_trip(std::chrono::milliseconds(1500));
  expect_round_trip(std::chrono::nanoseconds(-42));
}

TEST(Serde, Vectors) {
  expect_round_trip(std::vector<int>{});
  expect_round_trip(std::vector<int>{1, 2, 3});
  expect_round_trip(std::vector<std::string>{"a", "", "ccc"});
  expect_round_trip(std::vector<std::vector<double>>{{1.0}, {}, {2.0, 3.0}});
}

TEST(Serde, ArraysPairsTuples) {
  expect_round_trip(std::array<int, 3>{7, 8, 9});
  expect_round_trip(std::pair<int, std::string>{4, "four"});
  expect_round_trip(std::tuple<int, double, std::string>{1, 2.5, "x"});
  expect_round_trip(std::tuple<>{});
}

TEST(Serde, Maps) {
  expect_round_trip(std::map<std::string, int>{{"a", 1}, {"b", 2}});
  expect_round_trip(std::unordered_map<int, std::string>{{1, "x"}, {2, "y"}});
  expect_round_trip(std::set<int>{3, 1, 2});
}

TEST(Serde, UnorderedMapEncodingIsCanonical) {
  // Maps with the same content must serialize identically regardless of
  // internal bucket order, so content-addressed stores (IPFS) see one CID.
  std::unordered_map<std::string, int> a;
  std::unordered_map<std::string, int> b;
  for (int i = 0; i < 100; ++i) a.emplace("k" + std::to_string(i), i);
  for (int i = 99; i >= 0; --i) b.emplace("k" + std::to_string(i), i);
  EXPECT_EQ(to_bytes(a), to_bytes(b));
}

TEST(Serde, Optional) {
  expect_round_trip(std::optional<int>{});
  expect_round_trip(std::optional<int>{5});
  expect_round_trip(std::optional<std::string>{"text"});
}

TEST(Serde, Variant) {
  using V = std::variant<int, std::string, double>;
  expect_round_trip(V{42});
  expect_round_trip(V{std::string("s")});
  expect_round_trip(V{2.5});
}

TEST(Serde, VariantRejectsBadIndex) {
  using V = std::variant<int, double>;
  Writer w;
  w.write_scalar<std::uint32_t>(9);  // out-of-range alternative
  w.write_scalar<int>(0);
  EXPECT_THROW(from_bytes<V>(w.buffer()), SerializationError);
}

struct Point {
  double x = 0;
  double y = 0;
  auto serde_members() { return std::tie(x, y); }
  auto serde_members() const { return std::tie(x, y); }
  bool operator==(const Point&) const = default;
};

struct Record {
  std::string name;
  std::vector<Point> points;
  std::optional<int> tag;
  auto serde_members() { return std::tie(name, points, tag); }
  auto serde_members() const { return std::tie(name, points, tag); }
  bool operator==(const Record&) const = default;
};

TEST(Serde, AggregateViaSerdeMembers) {
  expect_round_trip(Point{1.5, -2.5});
  expect_round_trip(Record{"r", {{1, 2}, {3, 4}}, 7});
  expect_round_trip(Record{});
}

TEST(Serde, TruncatedBufferThrows) {
  const Bytes encoded = to_bytes(std::string("hello world"));
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_THROW(from_bytes<std::string>(BytesView(encoded).substr(0, cut)),
                 SerializationError)
        << "cut=" << cut;
  }
}

TEST(Serde, TrailingBytesThrow) {
  Bytes encoded = to_bytes(42);
  encoded.push_back('x');
  EXPECT_THROW(from_bytes<int>(encoded), SerializationError);
}

TEST(Serde, HugeLengthPrefixRejected) {
  Writer w;
  w.write_scalar<std::uint64_t>(~0ULL);  // absurd length
  EXPECT_THROW(from_bytes<std::string>(w.buffer()), SerializationError);
}

TEST(Serde, OwnedStringDecodesInPlace) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kMiB}) {
    const Bytes encoded = to_bytes(pattern_bytes(n, n));
    Bytes owned = encoded;
    const char* buffer = owned.data();
    const std::string decoded = from_bytes<std::string>(std::move(owned));
    EXPECT_EQ(decoded, from_bytes<std::string>(BytesView(encoded)))
        << "n=" << n;
    // The payload comes back in the buffer it arrived in, not a copy.
    if (n == kMiB) {
      EXPECT_EQ(decoded.data(), buffer);
    }
  }
}

/// The SerializationError message `decode` throws ("none" if it returns).
template <typename F>
std::string decode_error(F&& decode) {
  try {
    (void)decode();
  } catch (const SerializationError& e) {
    return e.what();
  }
  return "none";
}

TEST(Serde, OwnedStringRejectsWhatTheViewRejects) {
  Writer long_prefix;
  long_prefix.write_scalar<std::uint64_t>(9);
  long_prefix.write_raw("abc", 3);
  const Bytes bad[] = {Bytes(7, '\0'), long_prefix.buffer(),
                       to_bytes(std::string("abc")) + "x"};
  for (const Bytes& data : bad) {
    const std::string expected =
        decode_error([&] { return from_bytes<std::string>(BytesView(data)); });
    EXPECT_NE(expected, "none");
    EXPECT_EQ(
        decode_error([&] { return from_bytes<std::string>(Bytes(data)); }),
        expected);
  }
}

TEST(Serde, SerializableConcept) {
  static_assert(Serializable<int>);
  static_assert(Serializable<std::string>);
  static_assert(Serializable<std::vector<Point>>);
  static_assert(Serializable<Record>);
  struct NotSerializable {};
  static_assert(!Serializable<NotSerializable>);
}

// Property test: random nested value round trips, for many seeds.
class SerdePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerdePropertyTest, RandomNestedValueRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  using Inner = std::map<std::string, std::vector<std::optional<std::int64_t>>>;
  Inner value;
  const int keys = static_cast<int>(rng.uniform_int(0, 8));
  for (int k = 0; k < keys; ++k) {
    std::vector<std::optional<std::int64_t>> vec;
    const int items = static_cast<int>(rng.uniform_int(0, 16));
    for (int i = 0; i < items; ++i) {
      if (rng.bernoulli(0.2)) {
        vec.push_back(std::nullopt);
      } else {
        vec.push_back(rng.uniform_int(INT64_MIN / 2, INT64_MAX / 2));
      }
    }
    value.emplace("key-" + std::to_string(rng.next_u64() % 1000),
                  std::move(vec));
  }
  expect_round_trip(value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdePropertyTest, ::testing::Range(0, 25));

// Property test: pattern payloads of many sizes round trip byte-exactly.
class SerdePayloadSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SerdePayloadSizeTest, BinaryPayloadRoundTrips) {
  const Bytes payload = pattern_bytes(GetParam(), GetParam());
  expect_round_trip(payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerdePayloadSizeTest,
                         ::testing::Values(0, 1, 2, 7, 8, 9, 63, 64, 65, 1000,
                                           4096, 65536, 1000000));

// Robustness: random corruption of a valid encoding must either decode to
// some value or throw SerializationError — never crash or hang.
class SerdeCorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(SerdeCorruptionTest, CorruptedBuffersFailSafely) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  using Payload =
      std::map<std::string, std::vector<std::optional<std::string>>>;
  Payload value;
  for (int k = 0; k < 4; ++k) {
    value.emplace("key" + std::to_string(k),
                  std::vector<std::optional<std::string>>{
                      std::nullopt, std::string("data-") + std::to_string(k)});
  }
  Bytes encoded = to_bytes(value);
  // Apply a handful of random byte flips / truncations.
  const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 4));
  for (int m = 0; m < mutations; ++m) {
    if (encoded.empty()) break;
    if (rng.bernoulli(0.3)) {
      encoded.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(encoded.size()) - 1)));
    } else {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(encoded.size()) - 1));
      encoded[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
  }
  try {
    const Payload decoded = from_bytes<Payload>(encoded);
    (void)decoded;  // decoding to *something* is acceptable
  } catch (const SerializationError&) {
    // rejecting is acceptable
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeCorruptionTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace ps::serde
