// The benchmark's own tracing: spans recorded around calls into each layer's
// public functions, kept in memory and written out at exit, plus the two
// wrappers that expose layers below Store (a forwarding Connector decorator
// and a timing serializer) and the allocation counters.
//
// Every thread appends to its own buffer, so recording takes no lock. A span
// closes into per-name aggregates immediately (count, total, self time =
// duration minus its child spans), so aggregates are exact over any run
// length; only the first kRawCap raw span records per thread are retained
// for the written trace.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/connector.hpp"
#include "core/store.hpp"

namespace pb::trace {

enum Name : std::uint32_t {
  kOp,  // root span of one unit op
  kProxyCreate,
  kProxySerialize,
  kProxyDeserialize,
  kProxyResolveFirst,
  kProxyDerefCached,
  kStorePut,
  kStoreGet,
  kStoreResolveBatch,
  kLocalGet,
  kLocalPut,
  kRedisGet,
  kRedisGetBatch,
  kRedisPut,
  kSwarmGet,
  kSwarmPut,
  kSerdeEncode,
  kSerdeDecode,
  kNameCount,
};

const char* name_of(Name name);

/// Spans record only while on (the traced phase of a traced run).
bool on();
void set_on(bool enabled);

struct Agg {
  std::uint64_t count = 0;  // items (a span may stand for several calls)
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t bytes = 0;
};
using Aggregates = std::array<Agg, kNameCount>;

/// RAII span around one call into a layer. Inert when tracing is off.
class Span {
 public:
  explicit Span(Name name, std::uint32_t items = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Bytes the call moved (serde throughput).
  void add_bytes(std::uint64_t n) { bytes_ += n; }

 private:
  bool active_ = false;
  Name name_;
  std::uint32_t items_;
  std::uint64_t bytes_ = 0;
};

/// Sums every thread's aggregates. Call with recording threads quiescent.
Aggregates aggregate();

/// Clears aggregates and raw records of every thread.
void reset();

/// Writes the retained raw spans (name, thread, start, end, parent) as JSON.
/// Returns the number of spans written.
std::size_t write(const std::string& path);

/// Forwarding Connector decorator: spans get/get_batch/put under
/// connector.<type>.* and forwards every other verb untouched.
class TracedConnector : public ps::core::Connector {
 public:
  explicit TracedConnector(std::shared_ptr<ps::core::Connector> inner);

  std::string type() const override { return inner_->type(); }
  ps::core::ConnectorConfig config() const override { return inner_->config(); }
  ps::core::ConnectorTraits traits() const override { return inner_->traits(); }

  ps::core::Key put(ps::BytesView data) override;
  std::vector<ps::core::Key> put_batch(
      const std::vector<ps::Bytes>& items) override;
  bool put_at(const ps::core::Key& key, ps::BytesView data) override;
  ps::core::Key reserve_key() override { return inner_->reserve_key(); }
  std::optional<ps::Bytes> get(const ps::core::Key& key) override;
  std::vector<std::optional<ps::Bytes>> get_batch(
      const std::vector<ps::core::Key>& keys) override;
  bool exists(const ps::core::Key& key) override { return inner_->exists(key); }
  std::vector<bool> exists_batch(
      const std::vector<ps::core::Key>& keys) override {
    return inner_->exists_batch(keys);
  }
  void evict(const ps::core::Key& key) override { inner_->evict(key); }
  void evict_batch(const std::vector<ps::core::Key>& keys) override {
    inner_->evict_batch(keys);
  }
  void close() override { inner_->close(); }

 private:
  std::shared_ptr<ps::core::Connector> inner_;
  Name get_;
  Name get_batch_;
  Name put_;
};

/// Wraps `connector` in a TracedConnector when `traced`.
std::shared_ptr<ps::core::Connector> maybe_traced(
    std::shared_ptr<ps::core::Connector> connector, bool traced);

/// Registers a Bytes serializer on `store` that spans serde::to_bytes and
/// serde::from_bytes (serde.encode / serde.decode, with byte counts).
void register_traced_serde(ps::core::Store& store);

}  // namespace pb::trace

namespace pb::alloc {

/// Global operator new/delete are replaced in this binary; they count only
/// while counting is on (the traced phase of a traced run).
void set_counting(bool on);
std::uint64_t count();
std::uint64_t bytes();

}  // namespace pb::alloc
