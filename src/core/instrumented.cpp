#include "core/instrumented.hpp"

#include "obs/context.hpp"
#include "obs/timer.hpp"

namespace ps::core {

InstrumentedConnector::Op::Op(const std::string& type, const char* op,
                              bool batch)
    : count("connector." + type + "." + op),
      vtime(count.name() + ".vtime"),
      wall(count.name() + ".wall") {
  if (batch) items.emplace(count.name() + ".items");
}

InstrumentedConnector::InstrumentedConnector(std::shared_ptr<Connector> inner)
    : inner_(std::move(inner)),
      put_(inner_->type(), "put"),
      get_(inner_->type(), "get"),
      exists_(inner_->type(), "exists"),
      evict_(inner_->type(), "evict"),
      put_batch_(inner_->type(), "put_batch", /*batch=*/true),
      get_batch_(inner_->type(), "get_batch", /*batch=*/true),
      exists_batch_(inner_->type(), "exists_batch", /*batch=*/true),
      evict_batch_(inner_->type(), "evict_batch", /*batch=*/true) {}

std::shared_ptr<Connector> InstrumentedConnector::wrap(
    std::shared_ptr<Connector> inner) {
  if (std::dynamic_pointer_cast<InstrumentedConnector>(inner)) return inner;
  return std::make_shared<InstrumentedConnector>(std::move(inner));
}

template <typename F>
auto InstrumentedConnector::timed(const Op& op, F&& call, std::size_t items) {
  obs::SpanScope span(op.count.name(), {}, "wire-transfer");
  if (!obs::enabled()) return call();
  op.count.get().inc();
  if (op.items) op.items->get().observe(static_cast<double>(items));
  obs::Timer timer(&op.vtime.get(), &op.wall.get());
  return call();
}

Key InstrumentedConnector::put(BytesView data) {
  return timed(put_, [&] { return inner_->put(data); });
}

Key InstrumentedConnector::put_hinted(BytesView data, const PutHints& hints) {
  return timed(put_, [&] { return inner_->put_hinted(data, hints); });
}

bool InstrumentedConnector::put_at(const Key& key, BytesView data) {
  return timed(put_, [&] { return inner_->put_at(key, data); });
}

Key InstrumentedConnector::reserve_key() { return inner_->reserve_key(); }

std::vector<Key> InstrumentedConnector::put_batch(
    const std::vector<Bytes>& items) {
  return timed(
      put_batch_, [&] { return inner_->put_batch(items); }, items.size());
}

std::optional<Bytes> InstrumentedConnector::get(const Key& key) {
  return timed(get_, [&] { return inner_->get(key); });
}

std::vector<std::optional<Bytes>> InstrumentedConnector::get_batch(
    const std::vector<Key>& keys) {
  return timed(
      get_batch_, [&] { return inner_->get_batch(keys); }, keys.size());
}

bool InstrumentedConnector::exists(const Key& key) {
  return timed(exists_, [&] { return inner_->exists(key); });
}

std::vector<bool> InstrumentedConnector::exists_batch(
    const std::vector<Key>& keys) {
  return timed(
      exists_batch_, [&] { return inner_->exists_batch(keys); }, keys.size());
}

void InstrumentedConnector::evict(const Key& key) {
  timed(evict_, [&] { inner_->evict(key); });
}

void InstrumentedConnector::evict_batch(const std::vector<Key>& keys) {
  timed(
      evict_batch_, [&] { inner_->evict_batch(keys); }, keys.size());
}

void InstrumentedConnector::close() { inner_->close(); }

}  // namespace ps::core
