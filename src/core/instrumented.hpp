// InstrumentedConnector: metrics decorator over any Connector.
//
// Wraps a connector and times every data-path op per connector *type* into
// the process-wide MetricsRegistry — counters
// "connector.<type>.<op>" plus latency histograms ".vtime" (virtual seconds,
// deterministic) and ".wall" (real seconds). Everything else — config,
// traits, hints, addressed writes — passes through untouched, so a wrapped
// connector is substitutable anywhere the raw one is: proxies minted against
// it reconstruct the *raw* connector type from config() in other processes.
// Metric handles are bound once at construction (obs::MetricHandle), so an
// op records into the ambient registry without a by-name lookup unless
// per-process scoping is on; per-op overhead when the global obs switch is
// off is a single relaxed load.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connector.hpp"
#include "obs/metrics.hpp"

namespace ps::core {

class InstrumentedConnector : public Connector {
 public:
  explicit InstrumentedConnector(std::shared_ptr<Connector> inner);

  /// Wraps `inner` unless it is already instrumented (idempotent).
  static std::shared_ptr<Connector> wrap(std::shared_ptr<Connector> inner);

  std::string type() const override { return inner_->type(); }
  ConnectorConfig config() const override { return inner_->config(); }
  ConnectorTraits traits() const override { return inner_->traits(); }

  Key put(BytesView data) override;
  Key put_hinted(BytesView data, const PutHints& hints) override;
  bool put_at(const Key& key, BytesView data) override;
  Key reserve_key() override;
  std::vector<Key> put_batch(const std::vector<Bytes>& items) override;
  std::optional<Bytes> get(const Key& key) override;
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<Key>& keys) override;
  bool exists(const Key& key) override;
  std::vector<bool> exists_batch(const std::vector<Key>& keys) override;
  void evict(const Key& key) override;
  void evict_batch(const std::vector<Key>& keys) override;
  void close() override;

  Connector& inner() { return *inner_; }
  const Connector& inner() const { return *inner_; }

 private:
  /// Metric handles for one operation.
  struct Op {
    Op(const std::string& type, const char* op, bool batch = false);

    /// "connector.<type>.<op>", whose name is also the trace span name.
    obs::CounterHandle count;
    obs::HistogramHandle vtime;
    obs::HistogramHandle wall;
    /// Batch ops only: items per call ("connector.<type>.<op>.items"), so
    /// many small batches vs few large ones read directly off count/mean.
    std::optional<obs::HistogramHandle> items;
  };

  /// Runs a synchronous op under its span, count and latency timer.
  template <typename F>
  auto timed(const Op& op, F&& call, std::size_t items = 0);

  std::shared_ptr<Connector> inner_;
  Op put_;
  Op get_;
  Op exists_;
  Op evict_;
  Op put_batch_;
  Op get_batch_;
  Op exists_batch_;
  Op evict_batch_;
};

}  // namespace ps::core
