#include "stream/kv_broker.hpp"

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/error.hpp"
#include "sim/vtime.hpp"

namespace ps::stream {

namespace {

/// Virtual-time backoff between head probes of an idle subscriber.
constexpr double kPollIntervalS = 0.005;
/// Probe budget before next() fails (stuck-producer guard).
constexpr std::uint32_t kMaxPolls = 1000;

std::string topic_key(const std::string& topic, const std::string& field) {
  return "ps.stream/" + topic + "/" + field;
}

std::string event_key(const std::string& topic, std::uint64_t sequence) {
  return topic_key(topic, "ev/" + std::to_string(sequence));
}

std::uint64_t read_counter(kv::KvClient& client, const std::string& key) {
  const std::optional<Bytes> value = client.get(key);
  return value ? std::stoull(*value) : 0;
}

/// Cursor over the topic log. Each subscription keeps its own KvClient copy
/// so round-trip costs charge the thread actually consuming.
class KvSubscription : public Subscription {
 public:
  KvSubscription(kv::KvClient client, std::string topic, std::uint64_t cursor)
      : client_(std::move(client)), topic_(std::move(topic)), cursor_(cursor) {}

  std::optional<Bytes> next() override {
    for (std::uint32_t poll = 0; poll <= kMaxPolls; ++poll) {
      if (auto event = take_available()) return event;
      // Nothing new: end-of-stream only once closed AND the head has not
      // moved past the cursor (events published before close still drain).
      if (at_end()) return std::nullopt;
      sim::vadvance(kPollIntervalS);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw Error("KvBroker: subscriber to '" + topic_ +
                "' exhausted its poll budget");
  }

  std::optional<Bytes> try_next() override { return take_available(); }

 private:
  bool at_end() {
    return client_.exists(topic_key(topic_, "closed")) &&
           read_counter(client_, topic_key(topic_, "head")) <= cursor_;
  }

  std::optional<Bytes> take_available() {
    const std::uint64_t head =
        read_counter(client_, topic_key(topic_, "head"));
    if (cursor_ >= head) return std::nullopt;
    std::optional<Bytes> event = client_.get(event_key(topic_, cursor_));
    if (!event) {
      throw Error("KvBroker: event " + std::to_string(cursor_) +
                  " of topic '" + topic_ + "' missing from the log");
    }
    ++cursor_;
    return event;
  }

  kv::KvClient client_;
  std::string topic_;
  std::uint64_t cursor_;
};

}  // namespace

KvBroker::KvBroker(const std::string& address)
    : address_(address), client_(address) {}

void KvBroker::publish(const std::string& topic, BytesView event) {
  if (client_.exists(topic_key(topic, "closed"))) {
    throw Error("KvBroker: publish to closed topic '" + topic + "'");
  }
  const std::uint64_t head = read_counter(client_, topic_key(topic, "head"));
  // Event + head advance travel as one pipelined request.
  client_.set_many({{event_key(topic, head), Bytes(event)},
                    {topic_key(topic, "head"), std::to_string(head + 1)}});
}

void KvBroker::publish_batch(const std::string& topic,
                             const std::vector<Bytes>& events) {
  if (events.empty()) return;
  if (client_.exists(topic_key(topic, "closed"))) {
    throw Error("KvBroker: publish to closed topic '" + topic + "'");
  }
  const std::uint64_t head = read_counter(client_, topic_key(topic, "head"));
  // All events + the head advance travel as one pipelined request.
  std::vector<std::pair<std::string, Bytes>> pairs;
  pairs.reserve(events.size() + 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    pairs.emplace_back(event_key(topic, head + i), events[i]);
  }
  pairs.emplace_back(topic_key(topic, "head"),
                     Bytes(std::to_string(head + events.size())));
  client_.set_many(pairs);
}

std::shared_ptr<Subscription> KvBroker::subscribe(const std::string& topic) {
  const std::uint64_t cursor =
      read_counter(client_, topic_key(topic, "head"));
  const std::uint64_t subs = read_counter(client_, topic_key(topic, "subs"));
  client_.set(topic_key(topic, "subs"), std::to_string(subs + 1));
  return std::make_shared<KvSubscription>(client_, topic, cursor);
}

std::size_t KvBroker::subscriber_count(const std::string& topic) {
  return static_cast<std::size_t>(
      read_counter(client_, topic_key(topic, "subs")));
}

void KvBroker::close_topic(const std::string& topic) {
  client_.set(topic_key(topic, "closed"), "1");
}

}  // namespace ps::stream
