// Process-wide thread pool behind one primitive, fork_join(). The sweep
// runner's job lanes and the branch-and-bound's node workers share it, so
// the worker count is the largest ensure_threads() request ever made
// (max over components, never their product).
//
// Both callers run each index as one long loop over their own work
// source (the sweep's job counter, the B&B's node queue), so nothing is
// stolen: one mutex-guarded FIFO holds the open fork_join groups, and an
// idle worker takes the next unclaimed index of the oldest. The pool
// makes no ordering promises; DESIGN.md says how callers stay
// deterministic.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace metaopt::runner {

class Scheduler {
 public:
  /// Hard cap on pool growth; ensure_threads() clamps to it.
  static constexpr int kMaxWorkers = 256;

  /// The process-wide scheduler. Created on first use; workers are
  /// joined when the process exits.
  static Scheduler& global();

  /// hardware_concurrency() with a floor of 1.
  static int default_threads();

  /// Grows the pool to at least `n` workers, clamped to [1, kMaxWorkers].
  /// Never shrinks: another component may still rely on the current
  /// width. Safe from any thread, including workers.
  void ensure_threads(int n);

  /// Current worker count.
  [[nodiscard]] int num_threads() const;

  /// Runs body(0), ..., body(width - 1) and returns when all have
  /// finished: grows the pool to `width` - 1 workers, runs body(0) on
  /// the calling thread, then runs inline every index no worker has
  /// claimed, then waits for the rest. So it completes on a saturated or
  /// one-CPU pool, and nests: safe from any thread, including inside
  /// another fork_join's body. `width` <= 1 just runs body(0). If
  /// body(0) throws, the other indices still finish before the
  /// exception propagates; the other bodies must not throw.
  void fork_join(int width, const std::function<void(int)>& body);

 private:
  struct Group;  // one fork_join call, on its caller's stack

  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Claims `group`'s next index (mutex_ held); the last one unlists it.
  int claim(Group& group);
  void worker_loop();

  mutable std::mutex mutex_;         ///< guards everything below
  std::condition_variable work_cv_;  ///< a group opened, or stop_
  std::condition_variable done_cv_;  ///< some group's running count hit 0
  std::vector<Group*> open_;         ///< FIFO of groups with open indices
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace metaopt::runner
