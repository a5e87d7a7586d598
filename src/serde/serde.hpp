// Binary serialization framework (the C++ stand-in for pickle).
//
// The paper's Store "(de)serializes objects before invoking the corresponding
// operation on the Connector" and allows custom (de)serialize functions.
// This framework provides:
//   * Writer/Reader over byte strings with bounds checking,
//   * a trait (`Codec<T>`) extensible by users, with built-in support for
//     scalars, enums, strings, containers, tuples, optional, variant,
//     chrono durations, and Uuid,
//   * aggregate support via a `serde_members()` member returning a tie of
//     fields,
//   * top-level helpers `to_bytes` / `from_bytes`.
//
// Encoding is little-endian fixed-width with 64-bit length prefixes; it is
// self-consistent but deliberately simple — the experiments measure data
// movement, not codec micro-optimizations.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/uuid.hpp"

namespace ps::serde {

class Writer {
 public:
  void write_raw(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }

  template <typename T>
    requires std::is_arithmetic_v<T>
  void write_scalar(T value) {
    // Assumes little-endian host (x86-64 / AArch64 Linux targets).
    write_raw(&value, sizeof(T));
  }

  void write_len(std::size_t n) {
    write_scalar<std::uint64_t>(static_cast<std::uint64_t>(n));
  }

  void write_blob(BytesView data) {
    write_len(data.size());
    write_raw(data.data(), data.size());
  }

  Bytes take() { return std::move(out_); }
  const Bytes& buffer() const { return out_; }
  std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  void read_raw(void* out, std::size_t n) {
    require(n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
    requires std::is_arithmetic_v<T>
  T read_scalar() {
    T value;
    read_raw(&value, sizeof(T));
    return value;
  }

  std::size_t read_len() {
    const auto n = read_scalar<std::uint64_t>();
    if (n > data_.size() - pos_) {
      throw SerializationError("serde: length prefix exceeds buffer");
    }
    return static_cast<std::size_t>(n);
  }

  BytesView read_blob() {
    const std::size_t n = read_len();
    require(n);
    BytesView view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(std::size_t n) const {
    if (n > data_.size() - pos_) {
      throw SerializationError("serde: read past end of buffer");
    }
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

template <typename T, typename Enable = void>
struct Codec;  // specialize or provide serde_members()

template <typename T>
void encode(Writer& w, const T& value) {
  Codec<T>::encode(w, value);
}

template <typename T>
T decode(Reader& r) {
  return Codec<T>::decode(r);
}

template <typename T>
Bytes to_bytes(const T& value) {
  Writer w;
  encode(w, value);
  return w.take();
}

template <typename T>
T from_bytes(BytesView data) {
  Reader r(data);
  T value = decode<T>(r);
  if (!r.at_end()) {
    throw SerializationError("serde: trailing bytes after decode");
  }
  return value;
}

/// from_bytes over a buffer the caller gives up. A std::string payload is
/// decoded in place: the bytes move down over the length prefix and the
/// same buffer comes back, so a bulk read never allocates a second copy.
/// Every other type decodes from the view.
template <typename T>
T from_bytes(Bytes&& data) {
  if constexpr (std::is_same_v<T, std::string>) {
    Reader r(data);
    const std::size_t n = r.read_len();
    if (n != r.remaining()) {
      throw SerializationError("serde: trailing bytes after decode");
    }
    data.erase(0, sizeof(std::uint64_t));
    return std::move(data);
  } else {
    return from_bytes<T>(BytesView(data));
  }
}

// ---------------------------------------------------------------------------
// Built-in codecs.
// ---------------------------------------------------------------------------

template <typename T>
struct Codec<T, std::enable_if_t<std::is_arithmetic_v<T>>> {
  static void encode(Writer& w, T value) { w.write_scalar(value); }
  static T decode(Reader& r) { return r.read_scalar<T>(); }
};

template <typename T>
struct Codec<T, std::enable_if_t<std::is_enum_v<T>>> {
  using U = std::underlying_type_t<T>;
  static void encode(Writer& w, T value) {
    w.write_scalar(static_cast<U>(value));
  }
  static T decode(Reader& r) { return static_cast<T>(r.read_scalar<U>()); }
};

template <>
struct Codec<std::string> {
  static void encode(Writer& w, const std::string& value) {
    w.write_blob(value);
  }
  static std::string decode(Reader& r) { return std::string(r.read_blob()); }
};

template <>
struct Codec<Uuid> {
  static void encode(Writer& w, const Uuid& value) {
    w.write_scalar(value.hi());
    w.write_scalar(value.lo());
  }
  static Uuid decode(Reader& r) {
    const auto hi = r.read_scalar<std::uint64_t>();
    const auto lo = r.read_scalar<std::uint64_t>();
    return Uuid(hi, lo);
  }
};

template <typename Rep, typename Period>
struct Codec<std::chrono::duration<Rep, Period>> {
  using D = std::chrono::duration<Rep, Period>;
  static void encode(Writer& w, const D& value) {
    w.write_scalar<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(value).count());
  }
  static D decode(Reader& r) {
    return std::chrono::duration_cast<D>(
        std::chrono::nanoseconds(r.read_scalar<std::int64_t>()));
  }
};

template <typename T>
struct Codec<std::vector<T>> {
  static void encode(Writer& w, const std::vector<T>& value) {
    w.write_len(value.size());
    for (const auto& item : value) serde::encode(w, item);
  }
  static std::vector<T> decode(Reader& r) {
    const std::size_t n = r.read_len();
    std::vector<T> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(serde::decode<T>(r));
    return out;
  }
};

template <typename T, std::size_t N>
struct Codec<std::array<T, N>> {
  static void encode(Writer& w, const std::array<T, N>& value) {
    for (const auto& item : value) serde::encode(w, item);
  }
  static std::array<T, N> decode(Reader& r) {
    std::array<T, N> out{};
    for (auto& item : out) item = serde::decode<T>(r);
    return out;
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void encode(Writer& w, const std::pair<A, B>& value) {
    serde::encode(w, value.first);
    serde::encode(w, value.second);
  }
  static std::pair<A, B> decode(Reader& r) {
    A a = serde::decode<A>(r);
    B b = serde::decode<B>(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename... Ts>
struct Codec<std::tuple<Ts...>> {
  static void encode(Writer& w, const std::tuple<Ts...>& value) {
    std::apply([&](const auto&... items) { (serde::encode(w, items), ...); },
               value);
  }
  static std::tuple<Ts...> decode(Reader& r) {
    // Braced init guarantees left-to-right evaluation of the decodes.
    return std::tuple<Ts...>{serde::decode<Ts>(r)...};
  }
};

template <typename K, typename V, typename C>
struct Codec<std::map<K, V, C>> {
  static void encode(Writer& w, const std::map<K, V, C>& value) {
    w.write_len(value.size());
    for (const auto& [k, v] : value) {
      serde::encode(w, k);
      serde::encode(w, v);
    }
  }
  static std::map<K, V, C> decode(Reader& r) {
    const std::size_t n = r.read_len();
    std::map<K, V, C> out;
    for (std::size_t i = 0; i < n; ++i) {
      K k = serde::decode<K>(r);
      V v = serde::decode<V>(r);
      out.emplace(std::move(k), std::move(v));
    }
    return out;
  }
};

template <typename K, typename V, typename H, typename E>
struct Codec<std::unordered_map<K, V, H, E>> {
  static void encode(Writer& w, const std::unordered_map<K, V, H, E>& value) {
    // Sort keys into a deterministic order so equal maps serialize equally.
    std::vector<const std::pair<const K, V>*> entries;
    entries.reserve(value.size());
    for (const auto& entry : value) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    w.write_len(entries.size());
    for (const auto* entry : entries) {
      serde::encode(w, entry->first);
      serde::encode(w, entry->second);
    }
  }
  static std::unordered_map<K, V, H, E> decode(Reader& r) {
    const std::size_t n = r.read_len();
    std::unordered_map<K, V, H, E> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      K k = serde::decode<K>(r);
      V v = serde::decode<V>(r);
      out.emplace(std::move(k), std::move(v));
    }
    return out;
  }
};

template <typename T, typename C>
struct Codec<std::set<T, C>> {
  static void encode(Writer& w, const std::set<T, C>& value) {
    w.write_len(value.size());
    for (const auto& item : value) serde::encode(w, item);
  }
  static std::set<T, C> decode(Reader& r) {
    const std::size_t n = r.read_len();
    std::set<T, C> out;
    for (std::size_t i = 0; i < n; ++i) out.insert(serde::decode<T>(r));
    return out;
  }
};

template <typename T>
struct Codec<std::optional<T>> {
  static void encode(Writer& w, const std::optional<T>& value) {
    w.write_scalar<std::uint8_t>(value.has_value() ? 1 : 0);
    if (value) serde::encode(w, *value);
  }
  static std::optional<T> decode(Reader& r) {
    if (r.read_scalar<std::uint8_t>() == 0) return std::nullopt;
    return serde::decode<T>(r);
  }
};

template <typename... Ts>
struct Codec<std::variant<Ts...>> {
  using V = std::variant<Ts...>;

  static void encode(Writer& w, const V& value) {
    w.write_scalar<std::uint32_t>(static_cast<std::uint32_t>(value.index()));
    std::visit([&](const auto& item) { serde::encode(w, item); }, value);
  }

  static V decode(Reader& r) {
    const auto index = r.read_scalar<std::uint32_t>();
    return decode_index(r, index, std::index_sequence_for<Ts...>{});
  }

 private:
  template <std::size_t... Is>
  static V decode_index(Reader& r, std::uint32_t index,
                        std::index_sequence<Is...>) {
    V out;
    bool matched = false;
    (void)((index == Is
                ? (out = V(std::in_place_index<Is>,
                           serde::decode<std::variant_alternative_t<Is, V>>(r)),
                   matched = true, true)
                : false) ||
           ...);
    if (!matched) {
      throw SerializationError("serde: variant index out of range");
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Aggregate support: any type exposing
//   auto serde_members()       -> std::tie(field, ...)
//   auto serde_members() const -> std::tie(field, ...)
// is serializable field-by-field.
// ---------------------------------------------------------------------------

template <typename T>
concept HasSerdeMembers = requires(T& t, const T& ct) {
  t.serde_members();
  ct.serde_members();
};

template <typename T>
struct Codec<T, std::enable_if_t<HasSerdeMembers<T>>> {
  static void encode(Writer& w, const T& value) {
    std::apply([&](const auto&... fields) { (serde::encode(w, fields), ...); },
               value.serde_members());
  }
  static T decode(Reader& r) {
    T value{};
    std::apply(
        [&](auto&... fields) {
          ((fields = serde::decode<std::decay_t<decltype(fields)>>(r)), ...);
        },
        value.serde_members());
    return value;
  }
};

/// True when a Codec exists for T (built-in, aggregate, or user-provided).
template <typename T>
concept Serializable = requires(Writer& w, Reader& r, const T& t) {
  Codec<std::decay_t<T>>::encode(w, t);
  { Codec<std::decay_t<T>>::decode(r) } -> std::convertible_to<std::decay_t<T>>;
};

}  // namespace ps::serde
