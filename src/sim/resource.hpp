// FIFO queueing resources for the virtual-time model.
//
// A Resource models a server pool that processes requests with bounded
// concurrency: the PS-endpoint's single asyncio thread, the cloud service's
// task ingestion, a Redis event loop. Requests arriving while the server is
// busy queue up — this is exactly the effect behind Figure 8, where
// per-request time grows linearly with the number of concurrent clients
// hitting one single-threaded endpoint.
//
// The queue uses a fluid (work-conserving) model: it tracks outstanding
// backlog that drains at `servers` units per virtual second. A request
// arriving at time t with service s completes at t + backlog/servers + s.
// Unlike a per-server next-free-time model, this stays causally sane when
// callers on different actor timelines schedule requests out of virtual
// order (a caller in the "virtual past" is never queued behind work that
// was submitted from its future).
#pragma once

#include <cstddef>
#include <mutex>

#include "sim/vtime.hpp"

namespace ps::sim {

class Resource {
 public:
  /// `servers` = number of requests the resource can process concurrently
  /// (1 for the single-threaded endpoint).
  explicit Resource(std::size_t servers = 1);

  /// Schedules a request arriving at virtual time `arrival` needing
  /// `service` seconds of work. Returns the virtual completion time.
  SimTime schedule(SimTime arrival, SimTime service);

  /// Total busy time accumulated across all servers.
  SimTime busy_time() const;

  /// Completed request count.
  std::size_t completed() const;

  void reset();

 private:
  mutable std::mutex mu_;
  std::size_t servers_;
  SimTime backlog_ = 0.0;       // outstanding work (service-seconds)
  SimTime last_arrival_ = 0.0;  // latest arrival seen (drain reference)
  SimTime busy_ = 0.0;
  std::size_t completed_ = 0;
};

}  // namespace ps::sim
