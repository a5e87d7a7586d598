// StreamProducer / StreamConsumer — the ProxyStream programming model.
//
// A producer sends objects into a named topic: payloads are serialized,
// buffered, and flushed in batches through the store's connector
// (Connector::put_batch — one bulk transfer per flush), while a small Event
// record per object travels through the pluggable PubSub broker. Consumers
// receive events and mint lazy Proxy<T> payloads from the embedded factory
// descriptor, so bulk data moves producer -> channel -> consumer directly
// and only metadata crosses the broker.
//
// Eviction protocol: each flushed payload's reference count is set to the
// topic's subscriber count at publish time; every consumer resolve
// decrements it and the last resolve evicts the payload from the channel
// (RefCountRegistry semantics). An event published to zero subscribers
// evicts its payload immediately — no consumer can ever reach it
// (subscribers join at the tail).
//
// Observability: every flush/publish/consume runs under an obs span; the
// publish span's TraceContext rides inside the event (and its descriptor),
// so consume and resolve spans stitch into the producer's trace across
// process/site boundaries. Per-topic counters stream.publish.<topic>,
// stream.delivered.<topic>, stream.consume.<topic> feed `psctl stream
// stats` (lag = delivered - consumed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/refcount.hpp"
#include "core/store.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "serde/serde.hpp"
#include "stream/event.hpp"
#include "stream/pubsub.hpp"

namespace ps::stream {

struct StreamProducerOptions {
  /// Flush when this many objects are buffered.
  std::size_t max_batch_items = 16;
  /// Flush when buffered serialized payloads reach this many bytes.
  std::size_t max_batch_bytes = std::size_t{1} << 20;
};

template <typename T>
class StreamProducer {
 public:
  StreamProducer(std::shared_ptr<core::Store> store,
                 std::shared_ptr<PubSub> broker, std::string topic,
                 StreamProducerOptions options = {})
      : store_(std::move(store)),
        broker_(std::move(broker)),
        topic_(std::move(topic)),
        options_(options) {}

  ~StreamProducer() {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; an explicit close() surfaces errors.
    }
  }

  StreamProducer(const StreamProducer&) = delete;
  StreamProducer& operator=(const StreamProducer&) = delete;

  /// Buffers one object (serialized immediately so the byte threshold sees
  /// wire sizes); flushes when either batch threshold is reached.
  void send(const T& value, std::map<std::string, std::string> attrs = {}) {
    if (closed_) {
      throw Error("StreamProducer: send on closed topic '" + topic_ + "'");
    }
    Pending pending{store_->serialize(value), std::move(attrs)};
    pending_bytes_ += pending.blob.size();
    pending_.push_back(std::move(pending));
    if (pending_.size() >= options_.max_batch_items ||
        pending_bytes_ >= options_.max_batch_bytes) {
      flush();
    }
  }

  /// Stores every buffered payload in one Connector::put_batch round trip
  /// and publishes one event per payload. Returns the events published.
  std::size_t flush() {
    if (pending_.empty()) return 0;
    obs::SpanScope flush_span("stream.flush", topic_);
    // Resolved in the ambient registry per flush so per-process metrics
    // scoping attributes the batch to the producing site.
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::ambient();
    obs::Timer timer(&metrics.histogram("stream.flush.vtime"),
                     &metrics.histogram("stream.flush.wall"));
    metrics.histogram("stream.batch.items")
        .observe(static_cast<double>(pending_.size()));
    metrics.histogram("stream.batch.bytes")
        .observe(static_cast<double>(pending_bytes_));

    std::vector<Bytes> blobs;
    std::vector<std::uint64_t> sizes;
    blobs.reserve(pending_.size());
    sizes.reserve(pending_.size());
    for (Pending& pending : pending_) {
      sizes.push_back(pending.blob.size());
      blobs.push_back(std::move(pending.blob));
    }
    const std::vector<core::Key> keys = store_->put_bytes_batch(blobs);

    const std::size_t subs = broker_->subscriber_count(topic_);
    std::shared_ptr<core::RefCountRegistry> refcounts;
    if (subs > 0) {
      refcounts = core::RefCountRegistry::for_store(store_->name());
    }

    std::vector<Bytes> wire_events;
    wire_events.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      obs::SpanScope span("stream.publish", topic_);
      core::FactoryDescriptor descriptor{
          store_->name(), keys[i], store_->connector().config(),
          /*evict=*/false};
      if (refcounts) {
        refcounts->set(keys[i].canonical(), static_cast<std::uint32_t>(subs));
        descriptor.ref_counted = true;
      }
      descriptor.trace = span.context();

      Event event;
      event.topic = topic_;
      event.sequence = next_sequence_++;
      event.payload_bytes = sizes[i];
      event.descriptor = std::move(descriptor);
      event.attrs = std::move(pending_[i].attrs);
      event.trace = span.context();
      wire_events.push_back(serde::to_bytes(event));
      metrics.counter("stream.publish." + topic_).inc();
      metrics.counter("stream.delivered." + topic_).inc(subs);
    }
    // One pipelined broker append for the whole batch (KvBroker: three kv
    // round trips for N events instead of 3N).
    broker_->publish_batch(topic_, wire_events);

    if (subs == 0) {
      // Nobody can ever reach these payloads (subscribers join at the
      // tail): reclaim the channel immediately instead of leaking — one
      // pipelined evict_batch round trip for the whole flush.
      store_->evict_batch(keys);
    }
    const std::size_t published = pending_.size();
    pending_.clear();
    pending_bytes_ = 0;
    return published;
  }

  /// Flushes any partial batch and marks end-of-stream. Idempotent.
  void close() {
    if (closed_) return;
    flush();
    broker_->close_topic(topic_);
    closed_ = true;
  }

  bool closed() const { return closed_; }
  const std::string& topic() const { return topic_; }
  /// Events published so far (excludes the buffered, unflushed tail).
  std::uint64_t published() const { return next_sequence_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    Bytes blob;
    std::map<std::string, std::string> attrs;
  };

  std::shared_ptr<core::Store> store_;
  std::shared_ptr<PubSub> broker_;
  std::string topic_;
  StreamProducerOptions options_;
  std::vector<Pending> pending_;
  std::size_t pending_bytes_ = 0;
  std::uint64_t next_sequence_ = 0;
  bool closed_ = false;
};

/// One consumed event plus the lazy proxy over its payload.
template <typename T>
struct StreamItem {
  Event event;
  core::Proxy<T> proxy;
};

template <typename T>
class StreamConsumer {
 public:
  StreamConsumer(std::shared_ptr<PubSub> broker, std::string topic)
      : broker_(std::move(broker)),
        topic_(std::move(topic)),
        subscription_(broker_->subscribe(topic_)) {}

  /// Blocks for the next event; nullopt at end-of-stream. The returned
  /// proxy is unresolved — the payload transfers on first access.
  std::optional<StreamItem<T>> next_item() {
    std::optional<Bytes> wire;
    {
      // Time blocked on the broker separately from payload handling: the
      // critical-path analyzer buckets this under "broker-poll".
      obs::SpanScope poll("stream.poll", topic_, "broker-poll");
      wire = subscription_->next();
    }
    if (!wire) return std::nullopt;
    Event event = serde::from_bytes<Event>(*wire);
    // Stitch into the producer's publish span across the broker hop.
    obs::ContextScope adopt(event.trace);
    obs::SpanScope span("stream.consume", topic_);
    obs::MetricsRegistry::ambient().counter("stream.consume." + topic_).inc();
    ++consumed_;
    core::Proxy<T> proxy = payload_proxy<T>(event);
    return StreamItem<T>{std::move(event), std::move(proxy)};
  }

  /// next_item() without the metadata.
  std::optional<core::Proxy<T>> next() {
    auto item = next_item();
    if (!item) return std::nullopt;
    return std::move(item->proxy);
  }

  const std::string& topic() const { return topic_; }
  std::uint64_t consumed() const { return consumed_; }

 private:
  std::shared_ptr<PubSub> broker_;
  std::string topic_;
  std::shared_ptr<Subscription> subscription_;
  std::uint64_t consumed_ = 0;
};

}  // namespace ps::stream
