// KvBroker: pub/sub event log on the kv substrate (cross-site capable).
//
// Topics are append-only event logs stored in a kv::KvServer:
//   ps.stream/<topic>/head    next sequence number (decimal)
//   ps.stream/<topic>/ev/<n>  serialized event n
//   ps.stream/<topic>/closed  end-of-stream marker
//   ps.stream/<topic>/subs    registered-subscriber count (decimal)
// Because every operation is a KvClient round trip, events cross simulated
// site boundaries with real (virtual-time) transfer and queueing costs —
// the broker is the bandwidth-constrained event channel that ProxyStream
// keeps bulk payloads out of.
//
// Concurrency contract: one producer per topic (head is read-modify-write),
// any number of subscribers in any process. Subscribers joining mid-stream
// start at the current tail. An idle subscriber polls the head, advancing
// its virtual clock by 5 ms per probe, and gives up with Error after 1000
// probes without progress or close.
#pragma once

#include <memory>
#include <string>

#include "kv/client.hpp"
#include "stream/pubsub.hpp"

namespace ps::stream {

class KvBroker : public PubSub {
 public:
  /// `address` of a running kv::KvServer (kv::kv_address(host, name)),
  /// resolved through the current world's service directory.
  explicit KvBroker(const std::string& address);

  std::string type() const override { return "kv"; }

  void publish(const std::string& topic, BytesView event) override;
  /// Appends the whole batch with one pipelined log write: closed-check +
  /// head read + a single MSET of every event and the head advance — three
  /// round trips for N events instead of 3N.
  void publish_batch(const std::string& topic,
                     const std::vector<Bytes>& events) override;
  std::shared_ptr<Subscription> subscribe(const std::string& topic) override;
  std::size_t subscriber_count(const std::string& topic) override;
  void close_topic(const std::string& topic) override;

  const std::string& address() const { return address_; }

 private:
  std::string address_;
  kv::KvClient client_;
};

}  // namespace ps::stream
