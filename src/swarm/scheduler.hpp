// The swarm chunk scheduler: multi-source fetch with verify and repair.
//
// Given a Manifest and N backends, the scheduler resolves every chunk in
// waves. Each wave assigns up to pipeline_depth chunks per backend (greedy
// least-projected-finish over the observed per-byte service estimates) and
// issues one pipelined get_batch per backend as a job on the connector's
// private AsyncExecutor — the per-backend transfers overlap in virtual
// time exactly like independent actors. The first wave trusts the
// manifest's holder map outright (optimistic: on WAN-like fabrics a
// blocking pre-flight presence probe costs a full round trip on the
// critical path); exists_batch discovery runs only after the first
// anomaly, to ground re-request decisions in the true replica map. Every
// fetched chunk is re-hashed before acceptance; a wave's post-mortem walks
// backends in fixed index order (determinism under virtual time) and:
//
//   * accepts verified chunks, advancing the backend's pipeline frontier;
//   * re-requests a corrupt or missing chunk from another untried replica;
//   * declares a backend slow when its wave ran past kSlowFactor x the best
//     per-byte rate observed in the same wave, DISCARDS its chunks without
//     merging its completion vtime (the whole point: the client stopped
//     waiting at the deadline, so the slow source must not drag the clock),
//     and re-requests them elsewhere — unless a chunk has no other live
//     replica, in which case the late arrival is accepted and counted.
//
// A chunk whose every replica has been tried and failed makes the payload
// unrecoverable (run() returns nullopt). A wave job only fetches and
// charges the verification's virtual time; once the wave joins, every
// fetched chunk is hashed and memcpy'd into one preallocated reassembly
// buffer at its manifest offset on all cores at once (parallel_for) —
// chunks write disjoint ranges (the tier-2 TSan test races this on
// purpose).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/async.hpp"
#include "core/connector.hpp"
#include "swarm/manifest.hpp"

namespace ps::swarm {

/// One replica source under the swarm: a stable name (used in keys, metrics
/// and psctl tables) plus the connector that reaches it.
struct Backend {
  std::string name;
  std::shared_ptr<core::Connector> connector;
};

/// Modeled SHA-256 throughput used to charge verification (and manifest
/// construction) virtual time.
inline constexpr double kHashBps = 4e9;

struct SwarmOptions {
  /// Chunk payload size; the last chunk of an object may be shorter.
  std::uint64_t chunk_size = 4ull << 20;
  /// Payloads at or above this size are chunked; smaller ones pass through
  /// to a single backend untouched.
  std::uint64_t chunk_threshold = 8ull << 20;
  /// Replicas per chunk (clamped to the backend count).
  std::uint32_t replication = 2;
  /// Chunks fetched per backend per wave (one pipelined get_batch each).
  std::uint32_t pipeline_depth = 4;
  /// Worker threads on the connector's private executor.
  std::size_t fetch_workers = 4;
};

class ChunkScheduler {
 public:
  ChunkScheduler(const std::vector<Backend>& backends, const Manifest& manifest,
                 const SwarmOptions& options, core::AsyncExecutor& executor,
                 std::string subject);

  /// Fetches, verifies, repairs and reassembles every chunk. Returns the
  /// payload bytes, or nullopt when some chunk has no live intact replica.
  /// Merges the slowest *accepted* completion into the caller's clock.
  std::optional<Bytes> run();

 private:
  /// Per-chunk fetch outcome inside one wave job.
  enum class ChunkStatus { kOk, kMissing, kCorrupt };

  /// What one per-backend wave job reports back to the scheduler.
  struct WaveSlot {
    std::vector<std::size_t> chunks;  // assigned chunk indices
    std::uint64_t bytes = 0;
    double issue_vtime = 0.0;  // job start after frontier/floor merge
    double end_vtime = 0.0;    // job's vnow after fetch + verification
    /// The fetched batch, position-for-position with `chunks`; verified and
    /// placed in place once the wave joins.
    std::vector<std::optional<Bytes>> values;
    std::vector<ChunkStatus> status;
    bool failed = false;  // the backend threw; treat as all-missing + dead
  };

  struct SourceState {
    double frontier_vtime = 0.0;   // pipeline frontier: last wave's end
    double est_s_per_byte = 0.0;   // EWMA of observed service rate
    bool alive = true;             // false after a thrown backend op
    bool slow = false;             // excluded from assignment once flagged
    /// Per-chunk availability: the manifest's holder map until discovery
    /// replaces it with probed truth (holders optimistically start true).
    std::vector<bool> has;
  };

  struct ChunkState {
    bool done = false;
    double floor_vtime = 0.0;      // earliest vtime a re-request may start
    std::vector<std::uint32_t> tried;
  };

  /// Probes every backend for its placed chunks (one pipelined
  /// exists_batch per backend, in parallel) and replaces the optimistic
  /// SourceState::has with probed truth. Runs at most once per resolve,
  /// triggered by the first repair; `floor_vtime` is the earliest vtime the
  /// triggering anomaly was known, so probes cannot start before it.
  void discover(double floor_vtime);

  /// Greedy assignment of `remaining` chunks onto non-slow live holders for
  /// one wave. Returns per-backend chunk lists; chunks that fit no backend
  /// this wave stay in `remaining`. Throws nothing; a chunk with no viable
  /// holder at all sets unrecoverable_.
  std::vector<std::vector<std::size_t>> assign(
      std::vector<std::size_t>& remaining);

  /// Issues one pipelined get_batch per assigned backend (each job spans
  /// "swarm.fetch", or "swarm.repair.fetch" when it carries a re-request),
  /// joins them, verifies and places the fetched chunks, and runs the
  /// deterministic post-mortem. Chunks to re-request are appended to
  /// `repairs`.
  void run_wave(const std::vector<std::vector<std::size_t>>& assignment,
                Bytes& buffer, std::vector<std::size_t>& repairs);

  bool tried(const ChunkState& chunk, std::uint32_t backend) const;

  const std::vector<Backend>& backends_;
  const Manifest& manifest_;
  const SwarmOptions& options_;
  core::AsyncExecutor& executor_;
  std::string subject_;

  std::vector<SourceState> sources_;
  std::vector<ChunkState> chunks_;
  double max_accept_vtime_ = 0.0;
  bool unrecoverable_ = false;
  bool discovered_ = false;

  // Wave join latch (the scheduler never Future::wait()s a wave job — that
  // would merge a discarded slow backend's vtime into the caller's clock).
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;
};

}  // namespace ps::swarm
