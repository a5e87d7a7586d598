// Shared types of the repo benchmark: per-op logs, exact percentiles,
// content fingerprints, process resource probes and the workload interface.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace pb {

using ps::Bytes;
using ps::BytesView;

/// Wall seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds (getrusage), all threads.
double cpu_s();

/// Process peak resident set size in MB (10^6 bytes).
double peak_rss_mb();

/// Exact nearest-rank percentile of raw samples: the smallest sample with at
/// least p% of the samples at or below it. p in (0, 100]; 0 for no samples.
double percentile(std::vector<double> samples, double p);

/// Fast 64-bit content fingerprint (word-wise multiply-xor), cheap enough to
/// check every op's output without dominating a 1 KB hand-off.
std::uint64_t fingerprint(BytesView data);

/// What was put under a key: the check every read is held to.
struct Expected {
  std::size_t size = 0;
  std::uint64_t fp = 0;

  static Expected of(BytesView data) { return {data.size(), fingerprint(data)}; }
  /// `salt` != 0 makes the expected fingerprint deliberately wrong.
  bool matches(BytesView data, std::uint64_t salt = 0) const {
    return data.size() == size && fingerprint(data) == (fp ^ salt);
  }
};

/// Exact integer-nanosecond samples in memory that barely grows with the
/// sample count: one counter per nanosecond below kBins ns (lazily zeroed
/// pages, so only the range samples land in is resident), raw values above.
/// Percentiles are exact nearest-rank over every sample, so a faster program
/// that completes more ops in a run does not also report a larger RSS.
class ExactSamples {
 public:
  ExactSamples();

  void add(std::int64_t ns);
  void merge(const ExactSamples& other);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile in nanoseconds (0 when empty).
  double percentile(double p) const;
  /// The first samples in arrival order (inputs for replays).
  const std::vector<double>& head_s() const { return head_s_; }

 private:
  struct Free {
    void operator()(std::uint32_t* p) const;
  };
  static constexpr std::size_t kBins = std::size_t{1} << 17;  // 131 us
  static constexpr std::size_t kHead = 4096;

  std::unique_ptr<std::uint32_t[], Free> bins_;
  std::vector<std::uint64_t> overflow_;
  std::vector<double> head_s_;
  std::uint64_t count_ = 0;
};

/// Per-op records of one measured window (one load thread, or merged).
struct OpLog {
  ExactSamples wall_ns;       // wall time per unit op
  std::vector<double> vt_ms;  // modelled latency of the deterministic prefix
  std::size_t vt_limit = 0;   // ops whose modelled latency is recorded
  double window_s = 0.0;      // wall length of the measured window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     // failed an output check or threw
  std::uint64_t payload_bytes = 0;
  std::vector<std::string> errors;  // first few failure messages

  void fail(const std::string& what);
  /// Adds the op counts, payload bytes and failure messages of `other`.
  void merge_counts(const OpLog& other);
  void record_vt(double ms) {
    if (vt_ms.size() < vt_limit) vt_ms.push_back(ms);
  }
  void merge(const OpLog& other);
};

/// Inputs a workload hands to the per-layer replays: representative objects
/// it stores, and the order its keys are drawn in (indices into objects).
struct ReplayInputs {
  std::vector<Bytes> objects;
  std::vector<std::size_t> sequence;
  /// Chunk size the replayed SHA-256 digests (0: whole objects).
  std::size_t hash_chunk = 0;
};

/// Deserialized-object cache activity of a workload's stores.
struct CacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs unit ops for at least `seconds` of wall time (and at least the
  /// deterministic vtime prefix), checking every op's output.
  virtual OpLog run(double seconds) = 0;

  /// Per-op modelled latency of the workload's deterministic op prefix, in
  /// op order: bit-identical for a given seed.
  virtual std::vector<double> vtime_prefix_ms(const OpLog& log) = 0;

  /// Percentile reported as the tail (99, or 90 where a run is short).
  virtual double tail_percentile() const = 0;

  virtual CacheCounts cache_counts() = 0;
  virtual ReplayInputs replay_inputs() const = 0;

  /// Test hook: makes the next reads of the hottest key expect the wrong
  /// content, so every such op must be counted as failed.
  virtual void corrupt_expected() = 0;
};

bool is_workload(const std::string& name);

/// proxy_hot, wan_kv or bulk_swarm; nullptr for an unknown name. With
/// `traced` the workload's stores get span-recording connector decorators
/// and serializers (inert until trace::set_on(true)).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool traced);

std::unique_ptr<Workload> make_proxy_hot(std::uint64_t seed, bool traced);
std::unique_ptr<Workload> make_wan_kv(std::uint64_t seed, bool traced);
std::unique_ptr<Workload> make_bulk_swarm(std::uint64_t seed, bool traced);

}  // namespace pb
