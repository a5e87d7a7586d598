// Shared-memory parallel loops.
//
// A small fork-join helper in the OpenMP `parallel for` idiom for the
// compute-heavy inner loops (convolutions and batch training in ps_ml,
// swarm manifest hashing). Static block scheduling, one block per worker;
// falls back to serial execution for small ranges. The calling thread runs
// blocks too, next to helper threads that start on first use and are
// shared by every loop in the process, so loops may nest and may be called
// from many threads at once.
#pragma once

#include <cstddef>
#include <functional>

namespace ps {

/// Number of workers parallel_for uses by default.
std::size_t parallel_workers();

/// Applies `body(i)` for every i in [begin, end), splitting the range into
/// contiguous blocks across threads. `body` must be safe to call
/// concurrently for distinct indices. Exceptions from any block are
/// rethrown (first one wins) after all threads join.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_grain = 1);

/// Block variant: `body(block_begin, block_end)` per worker — lets hot
/// loops keep per-block state without per-index call overhead.
void parallel_for_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain = 1);

}  // namespace ps
