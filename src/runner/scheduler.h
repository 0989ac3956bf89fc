// Process-wide work-stealing scheduler with nested-parallelism support.
//
// One pool of workers serves every parallel component in the process,
// and fork_join() is the one way to use it: the sweep runner's job
// lanes and the branch-and-bound's node workers both call it. With a
// single pool the worker count is bounded by the largest
// ensure_threads() request ever made (max over components, never their
// product), and a sweep whose jobs are deep in their B&B phase keeps
// every core busy instead of idling the pool width minus one.
//
// Deque discipline (Blumofe & Leiserson, and Katana's per-thread
// chunked worklists): each worker owns a deque. A worker submitting
// from inside a task pushes at the *front* of its own deque and pops
// its own work front-first (LIFO — nested B&B tasks run hot, right
// after their parent). Thieves steal from the *back* of a sibling's
// deque (FIFO — the oldest work: a sweep lane not yet started, or a
// B&B helper). Stealing only moves those tasks between threads; which
// job runs next is decided by the sweep lanes' shared job counter, not
// by the deques. Per-deque mutexes rather than a lock-free Chase-Lev
// deque: tasks here are milliseconds-to-seconds of solver work, queue
// overhead is noise, and the locking version is ThreadSanitizer-clean
// by construction.
//
// Nested parallelism without deadlock: every task has a joinable
// handle. join() first tries to *claim and run the task inline* on the
// joining thread — only if another worker already claimed it does
// join() block. fork_join() therefore always makes progress on its own
// stack, even on a 1-CPU host where the joining thread is the only
// worker; tasks that lose the claim race simply never run (their
// claimed state is observed and skipped).
//
// Determinism: the scheduler makes no ordering promises. Callers that
// need reproducible output key results by task identity (SweepRunner's
// per-job slots) or make each task a pure function of its inputs (the
// B&B's pristine-factor gate) — see DESIGN.md.
//
// Tasks must not throw: an exception escaping a task body propagates
// out of a worker thread and terminates the process (both in-repo users
// catch inside the body). The pool only grows, never shrinks, up to
// kMaxWorkers; workers are joined when the process exits.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace metaopt::runner {

namespace detail {

/// One unit of scheduler work. Reference-counted because three parties
/// can hold it: the deque it sits in, the submitter joining it, and the
/// worker running it.
struct SchedTask {
  std::function<void()> fn;
  /// 0 = pending (claimable), 1 = running, 2 = done. Claimed exactly
  /// once via CAS(0 -> 1) by whichever of {worker, joiner} gets there
  /// first; the loser (a worker popping an inline-claimed husk) skips.
  std::atomic<int> state{0};
  /// Guards the done transition against join()'s predicate check.
  std::mutex mutex;
  std::condition_variable done_cv;
};

}  // namespace detail

/// Handle to a submitted task; pass to Scheduler::join().
using TaskHandle = std::shared_ptr<detail::SchedTask>;

class Scheduler {
 public:
  /// Hard cap on pool growth; ensure_threads() clamps to it.
  static constexpr int kMaxWorkers = 256;

  /// The process-wide scheduler. Created on first use; workers are
  /// joined when the process exits.
  static Scheduler& global();

  /// hardware_concurrency() with a floor of 1.
  static int default_threads();

  /// Grows the pool to at least `n` workers (never shrinks — another
  /// component may still be relying on the current width). Safe from
  /// any thread, including workers.
  void ensure_threads(int n);

  /// Current worker count.
  [[nodiscard]] int num_threads() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  /// Runs body(0), ..., body(width - 1) and returns when all have
  /// finished: grows the pool to `width` - 1 workers, submits
  /// body(1..width-1), runs body(0) on the calling thread, then joins
  /// the rest, running any that no worker claimed yet inline. Safe from any thread, including
  /// from inside another fork_join's body. `width` <= 1 just runs
  /// body(0). If body(0) throws, the others are still joined before the
  /// exception propagates; the other bodies must not throw.
  void fork_join(int width, const std::function<void(int)>& body);

 private:
  /// Unit tests reach submit()/join() directly (lost-wakeup and
  /// inline-join regressions); product code goes through fork_join().
  friend class SchedulerTestPeer;

  Scheduler() = default;
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  struct Worker {
    std::mutex mutex;
    std::deque<TaskHandle> tasks;
    std::thread thread;
  };

  /// Enqueues a task. From a worker: front of its own deque (LIFO).
  /// From an external thread: round-robin to some worker's back. Grows
  /// the pool to one worker if ensure_threads() was never called.
  TaskHandle submit(std::function<void()> fn);

  /// Blocks until `task` has finished. If no worker has claimed it yet,
  /// the calling thread claims and runs it inline — the non-negotiable
  /// deadlock-freedom rule for nested parallelism on small hosts.
  void join(const TaskHandle& task);

  void worker_loop(int self);
  TaskHandle try_pop(int self);
  /// Runs an already-claimed task, then marks it done.
  void execute(detail::SchedTask& task);

  /// Fixed-capacity slot array so thieves can scan concurrently with
  /// growth: slots [0, num_workers_) are fully constructed (release
  /// store in ensure_threads pairs with the acquire load in readers);
  /// no vector reallocation ever moves a live deque.
  std::array<std::unique_ptr<Worker>, kMaxWorkers> workers_;
  std::atomic<int> num_workers_{0};
  std::mutex grow_mutex_;

  // wake_mutex_ guards stop_ and pairs with wake_cv_. queued_ is
  // additionally atomic so try_pop can check emptiness without the
  // global lock, but every increment that can turn the wait predicate
  // true happens under wake_mutex_ — otherwise the paired notify could
  // race a waiter's predicate check and be lost.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  std::atomic<long> queued_{0};  ///< deque entries (incl. claimed husks)
  std::atomic<std::size_t> next_worker_{0};
};

}  // namespace metaopt::runner
