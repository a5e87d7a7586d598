#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ps {

namespace {

/// One parallel loop. Blocks go out by ticket to the calling thread and to
/// every helper that picks the loop up, so a loop finishes even when all
/// helpers are busy: a loop started inside a block runs its own blocks.
struct Loop {
  /// The caller's body. Only claimed blocks call it, and the caller returns
  /// only after every claimed block has finished, so it never dangles.
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 0;  // indices per block
  std::size_t blocks = 0;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable finished;
  std::size_t done = 0;            // guarded by mu
  std::exception_ptr first_error;  // guarded by mu

  /// Runs blocks until none is left to claim.
  void work() {
    for (std::size_t i = next.fetch_add(1); i < blocks; i = next.fetch_add(1)) {
      const std::size_t lo = begin + i * chunk;
      std::exception_ptr error;
      try {
        (*body)(lo, std::min(end, lo + chunk));
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(mu);
      if (error && !first_error) first_error = error;
      if (++done == blocks) finished.notify_all();
    }
  }
};

/// The process's loop helpers: started on first use, then parked between
/// loops for the life of the process. Besides saving thread start-up per
/// loop, long-lived helpers keep the allocator stable: glibc gives an
/// exiting thread's malloc arena to the next thread that starts, so
/// short-lived loop threads could take the arena a connector's next fetch
/// worker would have reused, leaving several arenas each holding a
/// retained heap.
class Helpers {
 public:
  static Helpers& instance() {
    // Never destroyed: helpers are still parked in wait() at exit.
    static Helpers* helpers = new Helpers(parallel_workers() - 1);
    return *helpers;
  }

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Offers `loop` to `count` helpers.
  void post(const std::shared_ptr<Loop>& loop, std::size_t count) {
    {
      std::lock_guard lock(mu_);
      queue_.insert(queue_.end(), count, loop);
    }
    wake_.notify_all();
  }

 private:
  explicit Helpers(std::size_t count) {
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this] { serve(); });
    }
  }

  void serve() {
    for (;;) {
      std::shared_ptr<Loop> loop;
      {
        std::unique_lock lock(mu_);
        wake_.wait(lock, [this] { return !queue_.empty(); });
        loop = std::move(queue_.front());
        queue_.pop_front();
      }
      loop->work();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Loop>> queue_;  // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace

std::size_t parallel_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

void parallel_for_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t grain = std::max<std::size_t>(min_grain, 1);
  const std::size_t max_blocks = (n + grain - 1) / grain;
  const std::size_t workers = std::min(parallel_workers(), max_blocks);

  if (workers <= 1) {
    body(begin, end);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->body = &body;
  loop->begin = begin;
  loop->end = end;
  loop->chunk = (n + workers - 1) / workers;
  loop->blocks = (n + loop->chunk - 1) / loop->chunk;
  Helpers& helpers = Helpers::instance();
  helpers.post(loop, std::min(helpers.size(), loop->blocks - 1));
  loop->work();
  std::unique_lock lock(loop->mu);
  loop->finished.wait(lock, [&] { return loop->done == loop->blocks; });
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_grain) {
  parallel_for_blocks(
      begin, end,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      min_grain);
}

}  // namespace ps
