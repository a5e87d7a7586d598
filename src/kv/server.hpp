// Redis-like in-memory key-value server (the RedisConnector substrate).
//
// The paper uses Redis as a hybrid in-memory/on-disk mediator with
// low latency, persistence, and easy configuration (section 4.1.2).
// KvServer reproduces the surface ProxyStore relies on — GET/SET/DEL/EXISTS
// with optional TTL — plus append-only-file persistence so a restarted
// server recovers its contents, and a single-threaded service model whose
// queueing is captured by a sim::Resource.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "proc/world.hpp"
#include "sim/resource.hpp"

namespace ps::kv {

struct KvServerOptions {
  /// Append-only-file path for persistence; empty disables.
  std::filesystem::path aof_path;
};

class KvServer {
 public:
  /// Creates a server bound in `world`'s service directory at
  /// "redis://<host>/<name>". Replays the AOF if one exists.
  static std::shared_ptr<KvServer> start(proc::World& world,
                                         const std::string& host,
                                         const std::string& name,
                                         KvServerOptions options = {});

  explicit KvServer(std::string host, KvServerOptions options = {});

  const std::string& host() const { return host_; }

  // -- data plane (invoked by KvClient; thread-safe) -------------------------

  void set(const std::string& key, BytesView value,
           std::optional<std::chrono::milliseconds> ttl = std::nullopt,
           double virtual_now = 0.0);
  std::optional<Bytes> get(const std::string& key, double virtual_now = 0.0);
  /// The length get() would return, without copying the value: nullopt
  /// when absent or expired (an expired entry is erased, as get() does).
  std::optional<std::size_t> value_size(const std::string& key,
                                        double virtual_now = 0.0);
  bool exists(const std::string& key, double virtual_now = 0.0);
  bool del(const std::string& key);

  std::size_t size() const;
  void flush_all();

  /// Virtual service time for a request touching `bytes` of payload.
  double service_time(std::size_t bytes) const;

  /// The FIFO service queue (single-threaded Redis event loop).
  sim::Resource& queue() { return queue_; }

  /// Persists nothing further and truncates the AOF (test helper).
  void clear_persistence();

 private:
  struct Entry {
    Bytes value;
    /// Virtual expiry time; infinity when no TTL.
    double expires_at;
  };

  /// The unexpired entry for `key`, or nullptr — erasing it first when it
  /// expired at `virtual_now` (lazy expiry, as Redis does). Needs mu_ held.
  const Entry* live_entry(const std::string& key, double virtual_now);

  void append_aof(const std::string& op, const std::string& key,
                  BytesView value);
  void replay_aof();

  std::string host_;
  KvServerOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> data_;
  sim::Resource queue_;
  std::unique_ptr<std::ofstream> aof_;
};

/// Canonical service-directory address for a server.
std::string kv_address(const std::string& host, const std::string& name);

}  // namespace ps::kv
