#include "core/multi.hpp"

#include <algorithm>
#include <type_traits>

#include "common/hex.hpp"
#include "core/future.hpp"
#include "serde/serde.hpp"

namespace ps::core {

namespace {

constexpr const char* kChildField = "multi_connector";

/// Splits `requests` by owning child (`owner` maps a request to its entry
/// in `entries`) and calls `batch(entry, group)` once per child that owns
/// any: children in entries order, each group in request order. When
/// `batch` returns a vector, its elements are scattered back into request
/// order.
template <typename Request, typename Owner, typename Batch>
auto per_child(const std::vector<MultiConnector::Entry>& entries,
               const std::vector<Request>& requests, Owner owner,
               Batch batch) {
  using Entry = MultiConnector::Entry;
  // Every owner is resolved before any child is called, so an unroutable
  // request fails the whole call with no child touched.
  std::vector<std::vector<std::size_t>> index(entries.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Entry& entry = owner(requests[i]);
    index[static_cast<std::size_t>(&entry - entries.data())].push_back(i);
  }
  using Result = std::invoke_result_t<Batch&, const Entry&,
                                      const std::vector<Request>&>;
  constexpr bool kScatter = !std::is_void_v<Result>;
  std::conditional_t<kScatter, Result, Unit> out{};
  if constexpr (kScatter) out.resize(requests.size());
  for (std::size_t c = 0; c < entries.size(); ++c) {
    if (index[c].empty()) continue;
    std::vector<Request> group;
    group.reserve(index[c].size());
    for (const std::size_t i : index[c]) group.push_back(requests[i]);
    if constexpr (kScatter) {
      Result values = batch(entries[c], group);
      for (std::size_t j = 0; j < index[c].size(); ++j) {
        out[index[c][j]] = std::move(values[j]);
      }
    } else {
      batch(entries[c], group);
    }
  }
  return out;
}

}  // namespace

bool Policy::matches(std::uint64_t size, const PutHints& hints) const {
  if (size < min_size || size > max_size) return false;
  return std::includes(tags.begin(), tags.end(), hints.required_tags.begin(),
                       hints.required_tags.end());
}

MultiConnector::MultiConnector(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  if (entries_.empty()) {
    throw ConnectorError("MultiConnector: no connectors configured");
  }
  for (const Entry& entry : entries_) {
    if (!entry.connector) {
      throw ConnectorError("MultiConnector: null connector for '" +
                           entry.name + "'");
    }
    const auto count = std::count_if(
        entries_.begin(), entries_.end(),
        [&](const Entry& e) { return e.name == entry.name; });
    if (count != 1) {
      throw ConnectorError("MultiConnector: duplicate entry name '" +
                           entry.name + "'");
    }
  }
}

ConnectorConfig MultiConnector::config() const {
  ConnectorConfig cfg{.type = "multi", .params = {}};
  cfg.params["count"] = std::to_string(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::string idx = std::to_string(i);
    cfg.params["name_" + idx] = entries_[i].name;
    cfg.params["connector_" + idx] =
        to_hex(serde::to_bytes(entries_[i].connector->config()));
    cfg.params["policy_" + idx] = to_hex(serde::to_bytes(entries_[i].policy));
  }
  return cfg;
}

ConnectorTraits MultiConnector::traits() const {
  ConnectorTraits t{.storage = "mixed",
                    .intra_site = false,
                    .inter_site = false,
                    .persistent = true};
  for (const Entry& entry : entries_) {
    const ConnectorTraits child = entry.connector->traits();
    t.intra_site = t.intra_site || child.intra_site;
    t.inter_site = t.inter_site || child.inter_site;
    // The aggregate persists only if every routable channel persists.
    t.persistent = t.persistent && child.persistent;
  }
  return t;
}

const MultiConnector::Entry& MultiConnector::select(
    std::uint64_t size, const PutHints& hints) const {
  const Entry* best = nullptr;
  for (const Entry& entry : entries_) {
    if (!entry.policy.matches(size, hints)) continue;
    // Strictly-greater keeps the earliest entry on priority ties.
    if (best == nullptr || entry.policy.priority > best->policy.priority) {
      best = &entry;
    }
  }
  if (best == nullptr) {
    throw NoPolicyMatchError(
        "MultiConnector: no policy matches object of size " +
        std::to_string(size));
  }
  return *best;
}

Key MultiConnector::put(BytesView data) { return put_hinted(data, {}); }

Key MultiConnector::put_hinted(BytesView data, const PutHints& hints) {
  const Entry& entry = select(data.size(), hints);
  Key key = entry.connector->put(data);
  key.meta[kChildField] = entry.name;
  return key;
}

std::vector<Key> MultiConnector::put_batch(const std::vector<Bytes>& items) {
  // Group items per selected child so bulk-capable children still batch.
  return per_child(
      entries_, items,
      [this](const Bytes& item) -> const Entry& {
        return select(item.size(), {});
      },
      [](const Entry& entry, const std::vector<Bytes>& group) {
        std::vector<Key> keys = entry.connector->put_batch(group);
        for (Key& key : keys) key.meta[kChildField] = entry.name;
        return keys;
      });
}

const MultiConnector::Entry& MultiConnector::child_for(const Key& key) const {
  const std::string& name = key.field(kChildField);
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry;
  }
  throw ConnectorError("MultiConnector: key routed to unknown child '" + name +
                       "'");
}

std::optional<Bytes> MultiConnector::get(const Key& key) {
  return child_for(key).connector->get(key);
}

std::vector<std::optional<Bytes>> MultiConnector::get_batch(
    const std::vector<Key>& keys) {
  return per_child(
      entries_, keys,
      [this](const Key& key) -> const Entry& { return child_for(key); },
      [](const Entry& entry, const std::vector<Key>& group) {
        return entry.connector->get_batch(group);
      });
}

bool MultiConnector::exists(const Key& key) {
  return child_for(key).connector->exists(key);
}

std::vector<bool> MultiConnector::exists_batch(const std::vector<Key>& keys) {
  return per_child(
      entries_, keys,
      [this](const Key& key) -> const Entry& { return child_for(key); },
      [](const Entry& entry, const std::vector<Key>& group) {
        return entry.connector->exists_batch(group);
      });
}

void MultiConnector::evict(const Key& key) {
  child_for(key).connector->evict(key);
}

void MultiConnector::evict_batch(const std::vector<Key>& keys) {
  per_child(
      entries_, keys,
      [this](const Key& key) -> const Entry& { return child_for(key); },
      [](const Entry& entry, const std::vector<Key>& group) {
        entry.connector->evict_batch(group);
      });
}

void MultiConnector::close() {
  for (const Entry& entry : entries_) entry.connector->close();
}

namespace {

std::shared_ptr<Connector> reconstruct_multi(const ConnectorConfig& cfg) {
  const std::size_t count = std::stoul(cfg.param("count"));
  std::vector<MultiConnector::Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string idx = std::to_string(i);
    auto child_cfg = serde::from_bytes<ConnectorConfig>(
        from_hex(cfg.param("connector_" + idx)));
    auto policy =
        serde::from_bytes<Policy>(from_hex(cfg.param("policy_" + idx)));
    entries.push_back(MultiConnector::Entry{
        cfg.param("name_" + idx),
        ConnectorRegistry::instance().reconstruct(child_cfg), policy});
  }
  return std::make_shared<MultiConnector>(std::move(entries));
}

const ConnectorRegistration kRegisterMulti("multi", &reconstruct_multi);

}  // namespace

}  // namespace ps::core
