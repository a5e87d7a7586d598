#include "kv/server.hpp"

#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "serde/serde.hpp"

namespace ps::kv {

namespace fs = std::filesystem;

namespace {

/// Base service time per request (command parse + dispatch).
constexpr double kBaseServiceS = 15e-6;
/// Server-side memory bandwidth applied to payload handling.
constexpr double kMemBps = 8e9;

}  // namespace

std::string kv_address(const std::string& host, const std::string& name) {
  return "redis://" + host + "/" + name;
}

std::shared_ptr<KvServer> KvServer::start(proc::World& world,
                                          const std::string& host,
                                          const std::string& name,
                                          KvServerOptions options) {
  auto server = std::make_shared<KvServer>(host, std::move(options));
  world.services().bind<KvServer>(kv_address(host, name), server);
  return server;
}

KvServer::KvServer(std::string host, KvServerOptions options)
    : host_(std::move(host)),
      options_(std::move(options)) {
  if (!options_.aof_path.empty()) {
    replay_aof();
    aof_ = std::make_unique<std::ofstream>(
        options_.aof_path, std::ios::binary | std::ios::app);
    if (!*aof_) {
      throw Error("KvServer: cannot open AOF " + options_.aof_path.string());
    }
  }
}

double KvServer::service_time(std::size_t bytes) const {
  return kBaseServiceS + static_cast<double>(bytes) / kMemBps;
}

void KvServer::append_aof(const std::string& op, const std::string& key,
                          BytesView value) {
  if (!aof_) return;
  serde::Writer w;
  w.write_blob(op);
  w.write_blob(key);
  w.write_blob(value);
  const Bytes record = w.take();
  aof_->write(record.data(), static_cast<std::streamsize>(record.size()));
  aof_->flush();
}

void KvServer::replay_aof() {
  std::ifstream in(options_.aof_path, std::ios::binary);
  if (!in) return;  // fresh server
  Bytes contents((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  serde::Reader r(contents);
  constexpr double kNoExpiry = std::numeric_limits<double>::infinity();
  while (!r.at_end()) {
    const std::string op(r.read_blob());
    const std::string key(r.read_blob());
    const Bytes value(r.read_blob());
    if (op == "SET") {
      data_[key] = Entry{value, kNoExpiry};
    } else if (op == "DEL") {
      data_.erase(key);
    } else {
      throw Error("KvServer: corrupt AOF record op='" + op + "'");
    }
  }
}

void KvServer::set(const std::string& key, BytesView value,
                   std::optional<std::chrono::milliseconds> ttl,
                   double virtual_now) {
  std::lock_guard lock(mu_);
  double expires = std::numeric_limits<double>::infinity();
  if (ttl) expires = virtual_now + std::chrono::duration<double>(*ttl).count();
  data_[key] = Entry{Bytes(value), expires};
  append_aof("SET", key, value);
}

const KvServer::Entry* KvServer::live_entry(const std::string& key,
                                            double virtual_now) {
  const auto it = data_.find(key);
  if (it == data_.end()) return nullptr;
  if (it->second.expires_at <= virtual_now) {
    data_.erase(it);  // lazy expiry, as Redis does
    return nullptr;
  }
  return &it->second;
}

std::optional<Bytes> KvServer::get(const std::string& key,
                                   double virtual_now) {
  std::lock_guard lock(mu_);
  const Entry* entry = live_entry(key, virtual_now);
  if (entry == nullptr) return std::nullopt;
  return entry->value;
}

std::optional<std::size_t> KvServer::value_size(const std::string& key,
                                                double virtual_now) {
  std::lock_guard lock(mu_);
  const Entry* entry = live_entry(key, virtual_now);
  if (entry == nullptr) return std::nullopt;
  return entry->value.size();
}

bool KvServer::exists(const std::string& key, double virtual_now) {
  std::lock_guard lock(mu_);
  return live_entry(key, virtual_now) != nullptr;
}

bool KvServer::del(const std::string& key) {
  std::lock_guard lock(mu_);
  const bool existed = data_.erase(key) > 0;
  if (existed) append_aof("DEL", key, {});
  return existed;
}

std::size_t KvServer::size() const {
  std::lock_guard lock(mu_);
  return data_.size();
}

void KvServer::flush_all() {
  std::lock_guard lock(mu_);
  data_.clear();
}

void KvServer::clear_persistence() {
  std::lock_guard lock(mu_);
  if (aof_) {
    aof_ = std::make_unique<std::ofstream>(
        options_.aof_path, std::ios::binary | std::ios::trunc);
  }
}

}  // namespace ps::kv
