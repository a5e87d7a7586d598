#include "net/channel.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"

namespace ps::net {

namespace {

struct WireInstruments {
  obs::GaugeHandle inflight{"rpc.inflight", obs::GaugeAgg::kMax};
  obs::HistogramHandle depth{"rpc.pipeline.depth"};
  obs::CounterHandle requests{"rpc.requests"};
};

const WireInstruments& wire_instruments() {
  // Never destroyed, like the registry itself: pool threads may still
  // transact during exit.
  static const WireInstruments* instruments = new WireInstruments();
  return *instruments;
}

}  // namespace

WireSample PipelinedChannel::transact(double issue, double request_cost,
                                      const Serve& serve) {
  std::lock_guard lock(mu_);

  if (issue < last_issue_) {
    // The actor's clock moved backward — a new virtual era (VtimeGuard rep
    // isolation, a pool worker reseeded for a new job). Everything issued
    // before has completed in real time; the channel is idle.
    req_frontier_ = 0.0;
    resp_frontier_ = 0.0;
    inflight_.clear();
  }
  last_issue_ = issue;

  // Anything that completed at or before this issue is no longer in flight.
  while (!inflight_.empty() && inflight_.front() <= issue) {
    inflight_.pop_front();
  }

  WireSample sample;
  sample.issue = issue;
  sample.send_start = std::max(issue, req_frontier_);
  sample.arrival = sample.send_start + request_cost;
  req_frontier_ = sample.arrival;

  const auto [served, response_cost] = serve(sample.arrival);
  sample.served = served;
  sample.completion = std::max(served, resp_frontier_) + response_cost;
  resp_frontier_ = sample.completion;

  inflight_.push_back(sample.completion);
  sample.depth = inflight_.size();
  last_completion_ = sample.completion;
  ++requests_;

  const WireInstruments& m = wire_instruments();
  m.inflight.get().set(static_cast<double>(sample.depth));
  m.depth.get().observe(static_cast<double>(sample.depth));
  m.requests.get().inc();
  return sample;
}

double PipelinedChannel::last_completion() const {
  std::lock_guard lock(mu_);
  return last_completion_;
}

std::uint64_t PipelinedChannel::requests() const {
  std::lock_guard lock(mu_);
  return requests_;
}

std::uint64_t current_actor() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

PipelinedChannel& ChannelRegistry::channel_for(
    const std::shared_ptr<void>& peer) {
  std::lock_guard lock(mu_);
  Entry& entry = entries_[{current_actor(), peer.get()}];
  if (!entry.channel) {
    entry.peer = peer;
    entry.channel = std::make_unique<PipelinedChannel>();
  }
  return *entry.channel;
}

}  // namespace ps::net
