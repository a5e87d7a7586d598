// Deterministic discrete-event scheduler.
//
// Events fire in (time, insertion-order) order, so runs are fully
// deterministic. No substrate drives it today (each World owns one); it is
// kept as a candidate tool for stepping actors in vtime order.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "sim/vtime.hpp"

namespace ps::sim {

class Scheduler {
 public:
  using Callback = std::function<void(SimTime now)>;

  /// Schedules `fn` to fire at absolute virtual time `when`.
  void at(SimTime when, Callback fn);

  /// Runs all events with time <= `until`, advancing an internal cursor.
  /// Returns the number of events fired. Events may schedule further events.
  std::size_t run_until(SimTime until);

  /// Runs everything currently scheduled (and anything it schedules).
  std::size_t run_all();

  /// Time of the next pending event, or +inf when empty.
  SimTime next_event_time() const;

  bool empty() const;

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  mutable std::mutex mu_;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ps::sim
