#include "swarm/scheduler.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/vtime.hpp"

namespace ps::swarm {

namespace {

void count(const std::string& name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::MetricsRegistry::ambient().counter(name).inc(n);
}

void observe(const std::string& name, double seconds) {
  if (obs::enabled()) {
    obs::MetricsRegistry::ambient().histogram(name).observe(seconds);
  }
}

/// Optimistic service-rate prior (1 GB/s) for sources with no measured
/// wave yet. Assignment cost is start + rate * (queued + size); with a
/// zero rate the queue term vanishes and every first-wave chunk would
/// tie-break onto one backend, serializing the very transfer the swarm
/// exists to parallelize. A shared positive prior makes the first wave
/// load-balance; real per-source estimates take over from wave two.
constexpr double kUnknownRatePrior = 1e-9;

/// A backend is slow when its wave exceeds kSlowFactor x the deadline
/// reference (best per-byte rate seen in the same wave x its bytes).
constexpr double kSlowFactor = 4.0;
/// Deadline floor, so tiny waves don't flag jitter as slowness.
constexpr double kMinTimeoutS = 2e-3;

}  // namespace

ChunkScheduler::ChunkScheduler(const std::vector<Backend>& backends,
                               const Manifest& manifest,
                               const SwarmOptions& options,
                               core::AsyncExecutor& executor,
                               std::string subject)
    : backends_(backends),
      manifest_(manifest),
      options_(options),
      executor_(executor),
      subject_(std::move(subject)) {
  sources_.resize(backends_.size());
  for (SourceState& source : sources_) {
    source.has.assign(manifest_.chunks.size(), false);
  }
  // Optimistic availability: the manifest's holder map is the truth until a
  // fetch contradicts it (then discover() probes the real replica map).
  for (std::size_t c = 0; c < manifest_.chunks.size(); ++c) {
    for (const std::uint32_t b : manifest_.chunks[c].holders) {
      if (b < sources_.size()) sources_[b].has[c] = true;
    }
  }
  chunks_.resize(manifest_.chunks.size());
}

bool ChunkScheduler::tried(const ChunkState& chunk,
                           std::uint32_t backend) const {
  return std::find(chunk.tried.begin(), chunk.tried.end(), backend) !=
         chunk.tried.end();
}

void ChunkScheduler::discover(double floor_vtime) {
  discovered_ = true;
  struct Probe {
    std::vector<std::size_t> chunk_idx;
    std::vector<core::Key> keys;
    std::vector<bool> present;
    double end_vtime = 0.0;
    bool failed = false;
  };
  std::vector<Probe> probes(backends_.size());
  for (std::size_t c = 0; c < manifest_.chunks.size(); ++c) {
    for (const std::uint32_t b : manifest_.chunks[c].holders) {
      probes[b].chunk_idx.push_back(c);
      probes[b].keys.push_back(chunk_key(manifest_.chunks[c].hash));
    }
  }
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (probes[b].keys.empty() || !sources_[b].alive) continue;
    {
      std::lock_guard lock(mu_);
      ++pending_;
    }
    executor_.submit([this, b, floor_vtime, &probes] {
      Probe& probe = probes[b];
      {
        // A probe exists because an anomaly triggered it; it cannot start
        // before that anomaly was known.
        sim::vmerge(floor_vtime);
        obs::SpanScope span("swarm.discover", subject_, "swarm-repair");
        try {
          probe.present = backends_[b].connector->exists_batch(probe.keys);
        } catch (...) {
          probe.failed = true;
        }
        probe.end_vtime = sim::vnow();
      }
      std::lock_guard lock(mu_);
      --pending_;
      done_cv_.notify_all();
    });
  }
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  // Discovery advances each source's pipeline frontier (its connection was
  // busy answering the probe) but never the caller's clock directly — the
  // resolve completes on accepted data, not on control traffic.
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const Probe& probe = probes[b];
    if (probe.keys.empty() || !sources_[b].alive) continue;
    if (probe.failed) {
      sources_[b].alive = false;
      count("swarm.source.errors");
      continue;
    }
    for (std::size_t i = 0; i < probe.chunk_idx.size(); ++i) {
      sources_[b].has[probe.chunk_idx[i]] = probe.present[i];
      if (!probe.present[i]) count("swarm.replicas.absent");
    }
    sources_[b].frontier_vtime =
        std::max(sources_[b].frontier_vtime, probe.end_vtime);
  }
}

std::vector<std::vector<std::size_t>> ChunkScheduler::assign(
    std::vector<std::size_t>& remaining) {
  std::vector<std::vector<std::size_t>> assignment(backends_.size());
  std::vector<std::uint64_t> load(backends_.size(), 0);
  std::vector<std::size_t> deferred;
  for (const std::size_t c : remaining) {
    const ChunkRef& ref = manifest_.chunks[c];
    int best = -1;
    bool best_slow = true;
    double best_finish = std::numeric_limits<double>::infinity();
    for (const std::uint32_t b : ref.holders) {
      const SourceState& src = sources_[b];
      if (!src.alive || !src.has[c] || tried(chunks_[c], b)) continue;
      if (assignment[b].size() >= options_.pipeline_depth) continue;
      // Prefer any non-slow holder over a slow one (a slow source is used
      // only as the replica of last resort); among peers pick the least
      // projected finish, ties to the lower backend index.
      const double start =
          std::max(src.frontier_vtime, chunks_[c].floor_vtime);
      const double rate =
          src.est_s_per_byte > 0.0 ? src.est_s_per_byte : kUnknownRatePrior;
      const double finish =
          start + rate * static_cast<double>(load[b] + ref.size);
      const bool better =
          best == -1 || (best_slow && !src.slow) ||
          (best_slow == src.slow &&
           (finish < best_finish ||
            (finish == best_finish && static_cast<int>(b) < best)));
      if (better) {
        best = static_cast<int>(b);
        best_slow = src.slow;
        best_finish = finish;
      }
    }
    if (best >= 0) {
      assignment[static_cast<std::size_t>(best)].push_back(c);
      load[static_cast<std::size_t>(best)] += ref.size;
      continue;
    }
    // No slot this wave: either every viable replica is at pipeline
    // capacity (retry next wave) or none is left at all (unrecoverable).
    bool capacity_limited = false;
    for (const std::uint32_t b : ref.holders) {
      const SourceState& src = sources_[b];
      if (src.alive && src.has[c] && !tried(chunks_[c], b)) {
        capacity_limited = true;
        break;
      }
    }
    if (capacity_limited) {
      deferred.push_back(c);
    } else {
      unrecoverable_ = true;
      count("swarm.chunks.unrecoverable");
    }
  }
  remaining = std::move(deferred);
  return assignment;
}

void ChunkScheduler::run_wave(
    const std::vector<std::vector<std::size_t>>& assignment, Bytes& buffer,
    std::vector<std::size_t>& repairs) {
  std::vector<WaveSlot> slots(backends_.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (assignment[b].empty()) continue;
    WaveSlot& slot = slots[b];
    slot.chunks = assignment[b];
    bool repair_job = false;
    double floor = sources_[b].frontier_vtime;
    for (const std::size_t c : slot.chunks) {
      slot.bytes += manifest_.chunks[c].size;
      floor = std::max(floor, chunks_[c].floor_vtime);
      repair_job = repair_job || !chunks_[c].tried.empty();
    }
    {
      std::lock_guard lock(mu_);
      ++pending_;
    }
    executor_.submit([this, b, floor, repair_job, &slots] {
      WaveSlot& slot = slots[b];
      {
        // A wave continues the backend's pipeline: it cannot start before
        // the previous wave's response drained, nor before the re-request
        // decision (floor) that triggered it.
        sim::vmerge(floor);
        slot.issue_vtime = sim::vnow();
        obs::SpanScope span(repair_job ? "swarm.repair.fetch" : "swarm.fetch",
                            subject_,
                            repair_job ? "swarm-repair" : "swarm-fetch");
        std::vector<core::Key> keys;
        keys.reserve(slot.chunks.size());
        for (const std::size_t c : slot.chunks) {
          keys.push_back(chunk_key(manifest_.chunks[c].hash));
        }
        try {
          // One pipelined batch: the job's clock lands on the batch's wire
          // completion, and the slot keeps the batch, so it is read in
          // place, never copied.
          slot.values = backends_[b].connector->get_batch(keys);
        } catch (...) {
          slot.failed = true;
        }
        // Verification is real compute on the resolve path: it is charged
        // here, on the fetching backend's clock, chunk by chunk; the hashing
        // itself runs once the wave joins.
        for (const std::optional<Bytes>& value : slot.values) {
          if (value) {
            sim::vadvance(static_cast<double>(value->size()) / kHashBps);
          }
        }
        slot.end_vtime = sim::vnow();
      }
      std::lock_guard lock(mu_);
      --pending_;
      done_cv_.notify_all();
    });
  }
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  // Verify and place every fetched chunk on all cores. Each chunk of a wave
  // has its own manifest offset, so the copies write disjoint ranges.
  std::vector<std::pair<std::size_t, std::size_t>> fetched;  // (slot, i)
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    WaveSlot& slot = slots[b];
    slot.status.assign(slot.chunks.size(), ChunkStatus::kMissing);
    if (slot.failed || slot.chunks.empty()) continue;
    for (std::size_t i = 0; i < slot.chunks.size(); ++i) {
      if (slot.values[i]) fetched.emplace_back(b, i);
    }
  }
  parallel_for(0, fetched.size(), [&](std::size_t k) {
    const auto [b, i] = fetched[k];
    WaveSlot& slot = slots[b];
    const Bytes& value = *slot.values[i];
    const ChunkRef& ref = manifest_.chunks[slot.chunks[i]];
    if (value.size() != ref.size || Sha256::hex_digest(value) != ref.hash) {
      slot.status[i] = ChunkStatus::kCorrupt;
      return;
    }
    slot.status[i] = ChunkStatus::kOk;
    std::memcpy(buffer.data() + ref.offset, value.data(), ref.size);
  });

  // Deadline reference: the best per-byte rate any backend demonstrated in
  // this wave. With fewer than two healthy participants there is nothing to
  // compare against (and nowhere to route around to), so no timeouts.
  double ref_per_byte = std::numeric_limits<double>::infinity();
  std::size_t active = 0;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const WaveSlot& slot = slots[b];
    if (slot.chunks.empty() || slot.failed) continue;
    ++active;
    if (slot.bytes > 0) {
      ref_per_byte =
          std::min(ref_per_byte, (slot.end_vtime - slot.issue_vtime) /
                                     static_cast<double>(slot.bytes));
    }
  }

  // Post-mortem in fixed backend order: acceptance, repair and timeout
  // decisions are a pure function of virtual times, so the outcome is
  // deterministic however the wall-clock scheduling interleaved.
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    WaveSlot& slot = slots[b];
    if (slot.chunks.empty()) continue;
    SourceState& src = sources_[b];
    count("swarm.chunks.fetched", slot.chunks.size());

    if (slot.failed) {
      src.alive = false;
      count("swarm.source.errors");
      for (const std::size_t c : slot.chunks) {
        ChunkState& chunk = chunks_[c];
        chunk.tried.push_back(static_cast<std::uint32_t>(b));
        chunk.floor_vtime = std::max(chunk.floor_vtime, slot.end_vtime);
        repairs.push_back(c);
        count("swarm.repairs");
      }
      continue;
    }

    const double duration = slot.end_vtime - slot.issue_vtime;
    const double per_byte =
        slot.bytes > 0 ? duration / static_cast<double>(slot.bytes) : 0.0;
    const double deadline =
        kSlowFactor * std::max(ref_per_byte * static_cast<double>(slot.bytes),
                               kMinTimeoutS);
    // A source already flagged slow only gets chunks as the replica of last
    // resort; re-flagging it would strand them, so accept what it sent.
    const bool timed_out = !src.slow && active >= 2 && duration > deadline;
    const double give_up = slot.issue_vtime + deadline;
    if (timed_out) {
      src.slow = true;
      count("swarm.source.timeouts");
      count("swarm.source." + backends_[b].name + ".timeouts");
    }
    src.frontier_vtime = std::max(src.frontier_vtime, slot.end_vtime);
    if (!timed_out && !src.slow && slot.bytes > 0) {
      src.est_s_per_byte = src.est_s_per_byte == 0.0
                               ? per_byte
                               : 0.5 * src.est_s_per_byte + 0.5 * per_byte;
    }

    for (std::size_t i = 0; i < slot.chunks.size(); ++i) {
      const std::size_t c = slot.chunks[i];
      const ChunkRef& ref = manifest_.chunks[c];
      ChunkState& chunk = chunks_[c];
      chunk.tried.push_back(static_cast<std::uint32_t>(b));
      bool has_alternative = false;
      for (const std::uint32_t h : ref.holders) {
        if (h == b) continue;
        if (sources_[h].alive && sources_[h].has[c] && !tried(chunk, h)) {
          has_alternative = true;
          break;
        }
      }
      if (timed_out && has_alternative) {
        // Route around the slow source: discard even a verified chunk —
        // the client stopped waiting at the deadline, and accepting it
        // would merge the straggler's vtime into the resolve after all.
        chunk.floor_vtime = std::max(chunk.floor_vtime, give_up);
        repairs.push_back(c);
        count("swarm.repairs");
        continue;
      }
      switch (slot.status[i]) {
        case ChunkStatus::kOk:
          chunk.done = true;
          max_accept_vtime_ = std::max(max_accept_vtime_, slot.end_vtime);
          count("swarm.chunks.verified");
          if (timed_out) count("swarm.chunks.accepted_late");
          count("swarm.source." + backends_[b].name + ".chunks");
          count("swarm.source." + backends_[b].name + ".bytes", ref.size);
          observe("swarm.chunk.vtime",
                  per_byte * static_cast<double>(ref.size));
          break;
        case ChunkStatus::kCorrupt:
        case ChunkStatus::kMissing: {
          count(slot.status[i] == ChunkStatus::kCorrupt
                    ? "swarm.chunks.corrupt"
                    : "swarm.chunks.missing");
          if (has_alternative) {
            // The failure was discovered when the response drained.
            chunk.floor_vtime = std::max(chunk.floor_vtime, slot.end_vtime);
            repairs.push_back(c);
            count("swarm.repairs");
          } else {
            unrecoverable_ = true;
            count("swarm.chunks.unrecoverable");
          }
          break;
        }
      }
    }
  }
}

std::optional<Bytes> ChunkScheduler::run() {
  Bytes buffer(manifest_.total_size, '\0');
  std::vector<std::size_t> remaining;
  remaining.reserve(manifest_.chunks.size());
  for (std::size_t c = 0; c < manifest_.chunks.size(); ++c) {
    remaining.push_back(c);
  }
  while (!remaining.empty() && !unrecoverable_) {
    const std::vector<std::vector<std::size_t>> assignment = assign(remaining);
    bool any = false;
    for (const auto& list : assignment) any = any || !list.empty();
    if (!any) break;  // assign() marked the stragglers unrecoverable
    std::vector<std::size_t> repairs;
    run_wave(assignment, buffer, repairs);
    if (!repairs.empty() && !discovered_) {
      // First anomaly: replace the optimistic holder map with probed truth
      // before deciding where the re-requests go. The probes cannot start
      // before the earliest moment any of this wave's anomalies was known.
      double floor = chunks_[repairs.front()].floor_vtime;
      for (const std::size_t c : repairs) {
        floor = std::min(floor, chunks_[c].floor_vtime);
      }
      discover(floor);
    }
    remaining.insert(remaining.end(), repairs.begin(), repairs.end());
    std::sort(remaining.begin(), remaining.end());
  }
  if (unrecoverable_) return std::nullopt;
  // The payload is whole only once its slowest accepted chunk landed.
  sim::vmerge(max_accept_vtime_);
  return buffer;
}

}  // namespace ps::swarm
