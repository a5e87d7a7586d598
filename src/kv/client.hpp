// Client side of the Redis-like KV substrate.
//
// A KvClient resolves a server address through the world's service
// directory and issues requests. Each request charges the caller's virtual
// time with: request transfer to the server host, FIFO queueing + service
// on the server (single-threaded Redis event loop), and the response
// transfer back — the full client-observed round trip.
//
// All requests ride the calling process's net::PipelinedChannel to the
// server. Synchronous ops advance the caller's clock to the round trip's
// completion (identical to the pre-pipelining model for sequential
// callers); get_many_async issues onto the channel without advancing the
// caller's clock and returns a Future stamped at that request's own
// pipelined completion vtime — N outstanding requests overlap transfer and
// FIFO service, and no thread is held while a request is in flight.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/future.hpp"
#include "kv/server.hpp"
#include "net/channel.hpp"

namespace ps::kv {

class KvClient {
 public:
  /// Connects to the server bound at `address` in the current world.
  explicit KvClient(const std::string& address);

  void set(const std::string& key, BytesView value,
           std::optional<std::chrono::milliseconds> ttl = std::nullopt);

  /// Pipelined MSET: all pairs travel in one request/response round trip
  /// (one network RTT instead of one per key).
  void set_many(const std::vector<std::pair<std::string, Bytes>>& pairs);

  std::optional<Bytes> get(const std::string& key);

  /// Pipelined MGET: all keys travel in one request and all values return
  /// in one response (one network RTT instead of one per key; the dual of
  /// set_many). Missing keys yield nullopt, position-for-position.
  std::vector<std::optional<Bytes>> get_many(
      const std::vector<std::string>& keys);

  bool exists(const std::string& key);

  /// Pipelined EXISTS: all keys probed in one request/response round trip
  /// (the presence-check dual of get_many). Position-for-position results.
  std::vector<bool> exists_many(const std::vector<std::string>& keys);

  bool del(const std::string& key);

  /// Pipelined DEL: all keys removed in one request/response round trip
  /// (the eviction dual of exists_many). Position-for-position "was
  /// present" results.
  std::vector<bool> del_many(const std::vector<std::string>& keys);

  // Completion-driven read: issues onto the channel and returns at once
  // with a ready future stamped at the request's pipelined completion
  // vtime. The caller's clock does not advance and no executor worker is
  // held. The Connector protocol above is synchronous, so code that wants
  // reads in flight on one channel issues them here.
  core::Future<std::vector<std::optional<Bytes>>> get_many_async(
      const std::vector<std::string>& keys);

  const std::string& address() const { return address_; }
  KvServer& server() { return *server_; }

  /// The calling process's pipelined channel to this server.
  net::PipelinedChannel& channel() const;

 private:
  /// One wire exchange (request transfer, FIFO service, response transfer)
  /// on the current process's channel. Does not touch the caller's clock.
  net::WireSample wire(std::size_t request_bytes, std::size_t response_bytes);

  /// Charges request/queue/response costs; returns server-side arrival time.
  double round_trip(std::size_t request_bytes, std::size_t response_bytes);

  std::string address_;
  std::shared_ptr<KvServer> server_;
};

}  // namespace ps::kv
