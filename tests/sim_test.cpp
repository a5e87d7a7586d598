#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/vtime.hpp"

namespace ps::sim {
namespace {

// ------------------------------------------------------------- resource ----

TEST(Resource, IdleServerStartsImmediately) {
  Resource r(1);
  EXPECT_DOUBLE_EQ(r.schedule(1.0, 0.5), 1.5);
}

TEST(Resource, BusyServerQueuesFifo) {
  Resource r(1);
  EXPECT_DOUBLE_EQ(r.schedule(0.0, 1.0), 1.0);
  // Arrives at 0.1 but must wait until 1.0.
  EXPECT_DOUBLE_EQ(r.schedule(0.1, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(r.schedule(0.2, 1.0), 3.0);
}

TEST(Resource, LinearScalingWithConcurrentClients) {
  // The Figure 8 effect: n clients issuing simultaneous identical requests
  // to a single-threaded server see mean response time ~ (n+1)/2 * service.
  for (const int n : {1, 2, 4, 8, 16}) {
    Resource r(1);
    const double service = 0.01;
    double total_response = 0.0;
    for (int i = 0; i < n; ++i) {
      total_response += r.schedule(0.0, service) - 0.0;
    }
    const double mean = total_response / n;
    EXPECT_NEAR(mean, (n + 1) / 2.0 * service, 1e-12);
  }
}

TEST(Resource, MultipleServersDrainBacklogFaster) {
  // Fluid model: backlog drains at `servers` service-seconds per second.
  Resource two(2);
  EXPECT_DOUBLE_EQ(two.schedule(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(two.schedule(0.0, 1.0), 1.5);  // 1.0 backlog / 2 servers
  EXPECT_DOUBLE_EQ(two.schedule(0.0, 1.0), 2.0);

  Resource one(1);
  one.schedule(0.0, 1.0);
  // One server with the same backlog queues twice as long.
  EXPECT_DOUBLE_EQ(one.schedule(0.0, 1.0), 2.0);
}

TEST(Resource, OutOfOrderArrivalsStayCausal) {
  // A request from an actor in the "virtual past" is not queued behind
  // work submitted from another actor's future.
  Resource r(1);
  r.schedule(100.0, 0.5);  // a late-timeline actor
  const double early = r.schedule(1.0, 0.5);
  EXPECT_LT(early, 3.0);  // not pushed to ~100
}

TEST(Resource, BacklogDrainsDuringIdleGaps) {
  Resource r(1);
  EXPECT_DOUBLE_EQ(r.schedule(0.0, 1.0), 1.0);
  // Arrives long after the backlog drained: no queueing.
  EXPECT_DOUBLE_EQ(r.schedule(10.0, 1.0), 11.0);
}

TEST(Resource, TracksBusyTimeAndCompleted) {
  Resource r(1);
  r.schedule(0.0, 0.25);
  r.schedule(0.0, 0.75);
  EXPECT_DOUBLE_EQ(r.busy_time(), 1.0);
  EXPECT_EQ(r.completed(), 2u);
  r.reset();
  EXPECT_DOUBLE_EQ(r.busy_time(), 0.0);
  EXPECT_EQ(r.completed(), 0u);
  EXPECT_DOUBLE_EQ(r.schedule(0.0, 0.1), 0.1);
}

TEST(Resource, ZeroServersThrows) {
  EXPECT_THROW(Resource(0), std::invalid_argument);
}

TEST(Resource, NegativeServiceThrows) {
  Resource r(1);
  EXPECT_THROW(r.schedule(0.0, -0.1), std::invalid_argument);
}

// ------------------------------------------------------------ scheduler ----

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(3.0, [&](SimTime) { order.push_back(3); });
  s.at(1.0, [&](SimTime) { order.push_back(1); });
  s.at(2.0, [&](SimTime) { order.push_back(2); });
  EXPECT_EQ(s.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TieBreaksByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(1.0, [&](SimTime) { order.push_back(1); });
  s.at(1.0, [&](SimTime) { order.push_back(2); });
  s.at(1.0, [&](SimTime) { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  std::vector<int> order;
  s.at(1.0, [&](SimTime) { order.push_back(1); });
  s.at(2.0, [&](SimTime) { order.push_back(2); });
  EXPECT_EQ(s.run_until(1.5), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(s.next_event_time(), 2.0);
  EXPECT_EQ(s.run_until(2.0), 1u);  // inclusive boundary
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  std::vector<double> fired;
  s.at(1.0, [&](SimTime now) {
    fired.push_back(now);
    s.at(now + 1.0, [&](SimTime later) { fired.push_back(later); });
  });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(Scheduler, EmptyNextEventIsInfinity) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), std::numeric_limits<SimTime>::infinity());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.run_all(), 0u);
}

TEST(Scheduler, CallbackReceivesScheduledTime) {
  Scheduler s;
  double seen = -1;
  s.at(4.25, [&](SimTime now) { seen = now; });
  s.run_all();
  EXPECT_DOUBLE_EQ(seen, 4.25);
}

// ---------------------------------------------------------------- vtime ----

TEST(Vtime, AdvanceAndMerge) {
  VtimeGuard guard;
  vset(0.0);
  vadvance(1.5);
  EXPECT_DOUBLE_EQ(vnow(), 1.5);
  vmerge(1.0);  // older timestamp: no effect
  EXPECT_DOUBLE_EQ(vnow(), 1.5);
  vmerge(3.0);  // newer message timestamp
  EXPECT_DOUBLE_EQ(vnow(), 3.0);
  EXPECT_THROW(vadvance(-1.0), std::invalid_argument);
}

TEST(Vtime, ScopeMeasuresElapsed) {
  VtimeGuard guard;
  vset(10.0);
  VtimeScope scope;
  vadvance(2.5);
  EXPECT_DOUBLE_EQ(scope.elapsed(), 2.5);
}

TEST(Vtime, GuardRestores) {
  vset(7.0);
  {
    VtimeGuard guard;
    vadvance(100.0);
  }
  EXPECT_DOUBLE_EQ(vnow(), 7.0);
}

TEST(Vtime, IsPerThread) {
  VtimeGuard guard;
  vset(5.0);
  double other = -1.0;
  std::thread t([&] {
    vset(1.0);
    vadvance(1.0);
    other = vnow();
  });
  t.join();
  EXPECT_DOUBLE_EQ(other, 2.0);
  EXPECT_DOUBLE_EQ(vnow(), 5.0);
}

}  // namespace
}  // namespace ps::sim
