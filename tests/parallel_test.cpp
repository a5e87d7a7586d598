#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace ps {
namespace {

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  parallel_for(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, RespectsOffsetRange) {
  std::atomic<long> sum{0};
  parallel_for(100, 200, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(Parallel, BlocksPartitionTheRange) {
  constexpr std::size_t kN = 1'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for_blocks(0, kN, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, LargeGrainFallsBackToSerial) {
  std::atomic<int> blocks{0};
  parallel_for_blocks(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        blocks.fetch_add(1);
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 100u);
      },
      /*min_grain=*/1000);
  EXPECT_EQ(blocks.load(), 1);
}

TEST(Parallel, ExceptionsPropagate) {
  EXPECT_THROW(
      parallel_for(0, 1000,
                   [](std::size_t i) {
                     if (i == 567) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, WorkersReported) { EXPECT_GE(parallel_workers(), 1u); }

TEST(Parallel, NestedLoopsComplete) {
  // Every block of the outer loop starts an inner loop while the shared
  // helpers are busy with outer blocks; callers run their own blocks, so
  // nothing waits on a helper that never comes.
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(0, kOuter, [&](std::size_t o) {
    parallel_for(0, kInner,
                 [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ConcurrentCallersShareTheHelpers) {
  // Loops started from several threads at once interleave on one set of
  // helpers; each still covers its own range exactly once, and an error in
  // one loop reaches only its own caller.
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kN = 2'000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& caller_hits : hits) {
    caller_hits = std::vector<std::atomic<int>>(kN);
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        parallel_for(0, kN, [&](std::size_t i) { hits[c][i].fetch_add(1); });
      }
      try {
        parallel_for(0, kN, [&](std::size_t i) {
          if (c == 0 && i == kN / 2) throw std::runtime_error("caller 0");
        });
      } catch (const std::runtime_error&) {
        errors.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(errors.load(), 1);
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), 20) << "caller " << c << " index " << i;
    }
  }
}

}  // namespace
}  // namespace ps
