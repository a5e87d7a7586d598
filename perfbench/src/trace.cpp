#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <limits>
#include <mutex>

#include "common/error.hpp"
#include "serde/serde.hpp"

namespace pb::trace {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kRawCap = 20000;  // raw span records kept per thread

constexpr std::array<const char*, kNameCount> kNames = {
    "op",
    "proxy.create",
    "proxy.serialize",
    "proxy.deserialize",
    "proxy.resolve_first",
    "proxy.deref_cached",
    "store.put",
    "store.get",
    "store.resolve_batch",
    "connector.local.get",
    "connector.local.put",
    "connector.redis.get",
    "connector.redis.get_batch",
    "connector.redis.put",
    "connector.swarm.get",
    "connector.swarm.put",
    "serde.encode",
    "serde.decode",
};

struct Raw {
  std::uint32_t name = 0;
  std::uint32_t parent = kNone;  // index in the same thread's buffer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Open {
  std::int64_t start_ns = 0;
  double child_ns = 0.0;
  std::uint32_t raw = kNone;
};

struct ThreadBuf {
  std::uint32_t id = 0;
  Aggregates agg{};
  std::vector<Raw> raw;
  std::vector<Open> stack;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = [] {
    auto owned = std::make_unique<ThreadBuf>();
    owned->raw.reserve(kRawCap);
    owned->stack.reserve(64);
    std::lock_guard lock(g_mu);
    owned->id = static_cast<std::uint32_t>(g_bufs.size());
    g_bufs.push_back(std::move(owned));
    return g_bufs.back().get();
  }();
  return *buf;
}

std::int64_t ticks_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* name_of(Name name) { return kNames[name]; }

bool on() { return g_on.load(std::memory_order_relaxed); }
void set_on(bool enabled) { g_on.store(enabled, std::memory_order_relaxed); }

Span::Span(Name name, std::uint32_t items) : name_(name), items_(items) {
  if (!on()) return;
  active_ = true;
  ThreadBuf& buf = local_buf();
  Open open;
  if (buf.raw.size() < kRawCap) {
    Raw raw;
    raw.name = name;
    raw.parent = buf.stack.empty() ? kNone : buf.stack.back().raw;
    buf.raw.push_back(raw);
    open.raw = static_cast<std::uint32_t>(buf.raw.size() - 1);
  }
  open.start_ns = ticks_ns();
  buf.stack.push_back(open);
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = ticks_ns();
  ThreadBuf& buf = local_buf();
  const Open open = buf.stack.back();
  buf.stack.pop_back();
  const auto duration = static_cast<double>(end - open.start_ns);
  Agg& agg = buf.agg[name_];
  agg.count += items_;
  agg.total_ns += duration;
  agg.self_ns += duration - open.child_ns;
  agg.bytes += bytes_;
  if (!buf.stack.empty()) buf.stack.back().child_ns += duration;
  if (open.raw != kNone) {
    buf.raw[open.raw].start_ns = open.start_ns;
    buf.raw[open.raw].end_ns = end;
  }
}

Aggregates aggregate() {
  Aggregates total{};
  std::lock_guard lock(g_mu);
  for (const auto& buf : g_bufs) {
    for (std::size_t n = 0; n < kNameCount; ++n) {
      total[n].count += buf->agg[n].count;
      total[n].total_ns += buf->agg[n].total_ns;
      total[n].self_ns += buf->agg[n].self_ns;
      total[n].bytes += buf->agg[n].bytes;
    }
  }
  return total;
}

void reset() {
  std::lock_guard lock(g_mu);
  for (const auto& buf : g_bufs) {
    buf->agg = Aggregates{};
    buf->raw.clear();
  }
}

std::size_t write(const std::string& path) {
  std::lock_guard lock(g_mu);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return 0;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& buf : g_bufs) {
    for (const Raw& raw : buf->raw) origin = std::min(origin, raw.start_ns);
  }
  std::size_t written = 0;
  std::fputs("{\"spans\": [\n", out);
  for (const auto& buf : g_bufs) {
    for (std::size_t i = 0; i < buf->raw.size(); ++i) {
      const Raw& raw = buf->raw[i];
      if (raw.end_ns == 0) continue;  // still open when the run ended
      const std::uint64_t id = buf->id * kRawCap + i;
      const long long parent =
          raw.parent == kNone
              ? -1
              : static_cast<long long>(buf->id * kRawCap + raw.parent);
      std::fprintf(out,
                   "%s{\"id\": %llu, \"parent\": %lld, \"name\": \"%s\", "
                   "\"thread\": %u, \"start_ns\": %lld, \"end_ns\": %lld}",
                   written == 0 ? "" : ",\n",
                   static_cast<unsigned long long>(id), parent,
                   kNames[raw.name], buf->id,
                   static_cast<long long>(raw.start_ns - origin),
                   static_cast<long long>(raw.end_ns - origin));
      ++written;
    }
  }
  std::fputs("\n]}\n", out);
  std::fclose(out);
  return written;
}

TracedConnector::TracedConnector(std::shared_ptr<ps::core::Connector> inner)
    : inner_(std::move(inner)) {
  const std::string type = inner_->type();
  if (type == "local") {
    get_ = get_batch_ = kLocalGet;
    put_ = kLocalPut;
  } else if (type == "redis") {
    get_ = kRedisGet;
    get_batch_ = kRedisGetBatch;
    put_ = kRedisPut;
  } else if (type == "swarm") {
    get_ = get_batch_ = kSwarmGet;
    put_ = kSwarmPut;
  } else {
    throw ps::Error("TracedConnector: no span names for connector '" + type +
                    "'");
  }
}

ps::core::Key TracedConnector::put(ps::BytesView data) {
  Span span(put_);
  return inner_->put(data);
}

std::vector<ps::core::Key> TracedConnector::put_batch(
    const std::vector<ps::Bytes>& items) {
  Span span(put_, static_cast<std::uint32_t>(items.size()));
  return inner_->put_batch(items);
}

bool TracedConnector::put_at(const ps::core::Key& key, ps::BytesView data) {
  Span span(put_);
  return inner_->put_at(key, data);
}

std::optional<ps::Bytes> TracedConnector::get(const ps::core::Key& key) {
  Span span(get_);
  return inner_->get(key);
}

std::vector<std::optional<ps::Bytes>> TracedConnector::get_batch(
    const std::vector<ps::core::Key>& keys) {
  Span span(get_batch_);
  return inner_->get_batch(keys);
}

std::shared_ptr<ps::core::Connector> maybe_traced(
    std::shared_ptr<ps::core::Connector> connector, bool traced) {
  if (!traced) return connector;
  return std::make_shared<TracedConnector>(std::move(connector));
}

void register_traced_serde(ps::core::Store& store) {
  store.register_serializer<ps::Bytes>(
      [](const ps::Bytes& value) {
        Span span(kSerdeEncode);
        span.add_bytes(value.size());
        return ps::serde::to_bytes(value);
      },
      [](ps::BytesView data) {
        Span span(kSerdeDecode);
        span.add_bytes(data.size());
        return ps::serde::from_bytes<ps::Bytes>(data);
      });
}

}  // namespace pb::trace
