// Factories (paper section 3.3).
//
// A factory is a callable that returns the proxy's target object. Factories
// created by a Store are *self-contained*: their serializable descriptor
// carries the store name, the object key, and the connector config, so a
// proxy shipped to another process can re-create the store and connector
// there and resolve the target without any out-of-band state.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <tuple>

#include "core/connector.hpp"
#include "core/key.hpp"
#include "obs/context.hpp"
#include "serde/serde.hpp"

namespace ps::core {

/// Serializable payload of a store-backed factory. This is the entirety of
/// what crosses process boundaries when a proxy is communicated.
struct FactoryDescriptor {
  std::string store_name;
  Key key;
  ConnectorConfig connector;
  /// Evict the object from the channel after the first resolve
  /// (Store.proxy(evict=True) semantics).
  bool evict = false;
  /// Data-flow semantics (I-structures, paper section 6): when > 0, a
  /// resolve of a not-yet-written object polls every `poll_interval_s`
  /// virtual seconds, up to `max_polls` times, instead of failing.
  double poll_interval_s = 0.0;
  std::uint32_t max_polls = 0;
  /// Wide-area reference counting (paper section 6): each resolve
  /// decrements the store's shared counter for this key; the final
  /// reference evicts the object from the channel.
  bool ref_counted = false;
  /// Trace context of the hop that minted this descriptor (invalid when
  /// tracing was off). A remote resolve adopts it so its span is a child
  /// of the proxy-creation span even across process/site boundaries.
  obs::TraceContext trace{};

  bool operator==(const FactoryDescriptor&) const = default;

  auto serde_members() {
    return std::tie(store_name, key, connector, evict, poll_interval_s,
                    max_polls, ref_counted, trace);
  }
  auto serde_members() const {
    return std::tie(store_name, key, connector, evict, poll_interval_s,
                    max_polls, ref_counted, trace);
  }
};

/// A lazy producer of T. Factories are copyable. An ad-hoc factory wraps
/// any callable; a store-backed factory holds its serializable descriptor
/// once and resolves it through a plain function pointer, so building one
/// costs the descriptor and nothing else.
template <typename T>
class Factory {
 public:
  /// Turns a descriptor into its target (see make_descriptor_factory).
  using Resolver = T (*)(const FactoryDescriptor&);

  Factory() = default;

  /// Ad-hoc factory from any callable (not serializable).
  explicit Factory(std::function<T()> fn) : fn_(std::move(fn)) {}

  /// Store-backed factory: its serializable descriptor and the function
  /// that resolves it.
  Factory(FactoryDescriptor descriptor, Resolver resolve)
      : descriptor_(std::move(descriptor)), resolve_(resolve) {}

  /// Resolves the target object.
  T operator()() const {
    if (resolve_ != nullptr) return resolve_(*descriptor_);
    if (!fn_) {
      throw ProxyResolutionError("Factory: empty factory invoked");
    }
    return fn_();
  }

  bool valid() const { return resolve_ != nullptr || static_cast<bool>(fn_); }

  /// Present only for store-backed factories.
  const std::optional<FactoryDescriptor>& descriptor() const {
    return descriptor_;
  }

 private:
  std::function<T()> fn_;
  std::optional<FactoryDescriptor> descriptor_;
  Resolver resolve_ = nullptr;
};

}  // namespace ps::core
