// Process-wide awareness of nested parallelism.
//
// task_depth() is the nesting depth of the scheduler task this thread is
// currently executing (-1 when it is not running a scheduler task at
// all). Submitters tag child tasks with task_depth() + 1, so an outer
// sweep job runs at depth 0 and the B&B helpers it spawns run at depth 1.
// The scheduler uses the tag for its per-depth execution histogram, and
// — crucially — the tag travels with the *task*, not the thread, so work
// handed to a helper thread keeps its place in the nesting no matter
// which worker picks it up.
//
// The marker is a plain thread_local — no atomics, no registry — because
// the question is always about *this* thread, never a cross-thread
// query.
#pragma once

namespace metaopt::util {

namespace detail {
inline thread_local int t_task_depth = -1;
}  // namespace detail

/// Nesting depth of the scheduler task this thread is executing, or -1
/// when the thread is not inside a scheduler task. Submit children at
/// `task_depth() + 1`: -1 + 1 == 0 makes external submissions depth 0
/// without a special case.
inline int task_depth() { return detail::t_task_depth; }

/// RAII marker: the current thread is executing a scheduler task at
/// `depth` for the scope's lifetime. Nests (inline joins run a child
/// task on its parent's stack); the previous depth is restored on
/// destruction.
class ScopedTaskDepth {
 public:
  explicit ScopedTaskDepth(int depth) : prev_(detail::t_task_depth) {
    detail::t_task_depth = depth;
  }
  ~ScopedTaskDepth() { detail::t_task_depth = prev_; }

  ScopedTaskDepth(const ScopedTaskDepth&) = delete;
  ScopedTaskDepth& operator=(const ScopedTaskDepth&) = delete;

 private:
  int prev_;
};

}  // namespace metaopt::util
