// MultiConnector (paper section 4.3).
//
// Routes operations across multiple managed connectors according to
// per-connector policies: object-size operating ranges, site tags, host
// patterns, and priorities for tie-breaking. An application uses a single
// Store while objects transparently flow to the appropriate channel; a put
// that matches no policy raises NoPolicyMatchError.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/connector.hpp"

namespace ps::core {

/// Per-connector usage policy.
struct Policy {
  /// Ideal operating range for object sizes, inclusive.
  std::uint64_t min_size = 0;
  std::uint64_t max_size = std::numeric_limits<std::uint64_t>::max();
  /// Tags denoting where/how the connector is accessible.
  std::set<std::string> tags;
  /// Higher priority wins among multiple matches.
  int priority = 0;

  /// True when an object of `size` with `hints` may use this connector.
  bool matches(std::uint64_t size, const PutHints& hints) const;

  bool operator==(const Policy&) const = default;

  auto serde_members() { return std::tie(min_size, max_size, tags, priority); }
  auto serde_members() const {
    return std::tie(min_size, max_size, tags, priority);
  }
};

class MultiConnector : public Connector {
 public:
  struct Entry {
    /// Stable name used in keys to route gets back to the right child.
    std::string name;
    std::shared_ptr<Connector> connector;
    Policy policy;
  };

  explicit MultiConnector(std::vector<Entry> entries);

  std::string type() const override { return "multi"; }
  ConnectorConfig config() const override;
  ConnectorTraits traits() const override;

  Key put(BytesView data) override;
  /// Policy-routed put with caller constraints.
  Key put_hinted(BytesView data, const PutHints& hints) override;
  std::vector<Key> put_batch(const std::vector<Bytes>& items) override;

  std::optional<Bytes> get(const Key& key) override;
  /// Routes each key to its owning child (by the routing field stamped at
  /// put time) and forwards per-child groups as batches, so bulk-capable
  /// children keep their one-round-trip pipelining.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<Key>& keys) override;
  bool exists(const Key& key) override;
  /// Routes each key to its owning child and forwards per-child groups as
  /// exists_batch calls, so pipelined children keep one-round-trip probes.
  std::vector<bool> exists_batch(const std::vector<Key>& keys) override;
  void evict(const Key& key) override;
  /// Routes each key to its owning child and forwards per-child groups as
  /// evict_batch calls, so pipelined children keep one-round-trip cleanup.
  void evict_batch(const std::vector<Key>& keys) override;
  void close() override;

  /// The child connector a put of `size` bytes with `hints` would route to.
  /// Throws NoPolicyMatchError when nothing matches.
  const Entry& select(std::uint64_t size, const PutHints& hints) const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  const Entry& child_for(const Key& key) const;

  std::vector<Entry> entries_;
};

}  // namespace ps::core
