// The process-wide work-stealing scheduler: the lost-wakeup regression,
// submit/join basics, the inline-join deadlock-freedom rule, fork_join
// (every index once at any width, repeatable, nestable), monotone pool
// growth bounded by the max component request, and the end-to-end
// oversubscription contract — a nested multi-threaded B&B inside a
// sweep job, even one moved onto a raw helper thread, never multiplies
// worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mip/branch_and_bound.h"
#include "obs/metrics.h"
#include "runner/scheduler.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "util/rng.h"

namespace metaopt::runner {

// The scheduler keeps submit()/join() private so that product code has
// one entry point, fork_join(); these tests pin the primitives under it.
class SchedulerTestPeer {
 public:
  static TaskHandle submit(std::function<void()> fn) {
    return Scheduler::global().submit(std::move(fn));
  }
  static void join(const TaskHandle& task) { Scheduler::global().join(task); }
};

namespace {

using Peer = SchedulerTestPeer;

TEST(SchedulerTest, SingleSubmitNeverLosesTheWakeup) {
  // Regression: submit() must publish queued_ under wake_mutex_ before
  // notifying. Without that, the increment+notify can land in the window
  // between a sleeping worker's predicate check and its block, the
  // notification is lost, and the task is stranded. The caller waits on
  // a flag, never join() (which would run the task inline and hide the
  // bug), so a lost wakeup hangs the test. First in the file, so a lone
  // run has a one-worker pool: one task at a time on it maximizes the
  // chance of hitting that window.
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(1);
  for (int i = 0; i < 2000; ++i) {
    std::atomic<bool> done{false};
    const TaskHandle task = Peer::submit([&done] {
      done.store(true);
      done.notify_one();
    });
    done.wait(false);
    Peer::join(task);  // already done: returns without running it
  }
}

TEST(SchedulerTest, SubmitAndJoinRunsEveryTask) {
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(2);
  std::atomic<int> count{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 500; ++i) {
    handles.push_back(Peer::submit([&count] { count.fetch_add(1); }));
  }
  for (const TaskHandle& h : handles) Peer::join(h);
  EXPECT_EQ(count.load(), 500);
}

TEST(SchedulerTest, JoinRunsUnclaimedTaskInline) {
  // The deadlock-freedom rule: joining a task no worker has claimed yet
  // runs it on the joining thread. Saturate the pool with slow tasks so
  // the joined task is still pending, then verify it ran on this thread.
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(2);
  std::atomic<bool> release{false};
  std::vector<TaskHandle> blockers;
  for (int i = 0; i < sched.num_threads(); ++i) {
    blockers.push_back(Peer::submit([&release] {
      while (!release.load()) std::this_thread::yield();
    }));
  }
  std::thread::id ran_on;
  const TaskHandle task =
      Peer::submit([&ran_on] { ran_on = std::this_thread::get_id(); });
  Peer::join(task);  // must not block behind the saturated pool
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  release.store(true);
  for (const TaskHandle& h : blockers) Peer::join(h);
}

TEST(SchedulerTest, ForkJoinRunsEveryIndexOnce) {
  for (const int width : {1, 2, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(width));
    Scheduler::global().fork_join(width, [&runs](int i) {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
    // The caller is one runner; the pool supplies the other width - 1.
    EXPECT_GE(Scheduler::global().num_threads(), std::max(1, width - 1));
  }
}

TEST(SchedulerTest, ForkJoinIsRepeatable) {
  std::atomic<int> count{0};
  for (int round = 0; round < 200; ++round) {
    Scheduler::global().fork_join(4, [&count](int) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 4 * (round + 1));
  }
}

TEST(SchedulerTest, NestedForkJoinCompletes) {
  // Each outer body forks its own inner group and joins it from inside
  // a scheduler task (or the caller): inner tasks land on the running
  // worker's own deque and are claimed inline if nobody steals them.
  std::atomic<int> count{0};
  Scheduler::global().fork_join(3, [&count](int) {
    Scheduler::global().fork_join(5, [&count](int) { count.fetch_add(1); });
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 3 * 6);
}

TEST(SchedulerTest, ForkJoinJoinsTheForksBeforeRethrowing) {
  std::atomic<int> finished{0};
  EXPECT_THROW(Scheduler::global().fork_join(
                   4,
                   [&finished](int i) {
                     if (i == 0) throw std::runtime_error("caller's body");
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     finished.fetch_add(1);
                   }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(SchedulerTest, EnsureThreadsOnlyGrows) {
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(3);
  const int width = sched.num_threads();
  EXPECT_GE(width, 3);
  sched.ensure_threads(1);  // a smaller request never shrinks the pool
  EXPECT_EQ(sched.num_threads(), width);
  sched.ensure_threads(0);  // nonsense requests are clamped, not fatal
  EXPECT_EQ(sched.num_threads(), width);
}

// A sweep job that moves its solver call onto a raw helper thread must
// not spawn a private B&B pool on top of the sweep's (an old
// thread-local oversubscription clamp missed exactly this case). With
// the shared scheduler the bound is structural: no matter which thread
// asks, workers come from one pool whose size is the max of all
// requests, never a product.
TEST(SchedulerTest, NestedBnbOnHelperThreadNeverOversubscribes) {
  using mip::BranchAndBound;
  using mip::MipOptions;

  // A small branching MIP (same family as bnb_parallel_test).
  util::Rng rng(util::derive_seed(20260809, 1));
  lp::Model m;
  std::vector<lp::Var> xs;
  for (int i = 0; i < 6; ++i) {
    xs.push_back(m.add_binary("b" + std::to_string(i)));
  }
  lp::LinExpr weight;
  lp::LinExpr profit;
  double total_weight = 0.0;
  for (const lp::Var& x : xs) {
    const double w = rng.uniform(1.0, 5.0);
    total_weight += w;
    weight += w * lp::LinExpr(x);
    profit += rng.uniform(1.0, 6.0) * lp::LinExpr(x);
  }
  m.add_constraint(weight <= lp::LinExpr(total_weight * 0.5));
  m.set_objective(lp::ObjSense::Maximize, profit);

  MipOptions serial;
  serial.threads = 1;
  const auto ref = BranchAndBound(serial).solve(m);
  ASSERT_EQ(ref.status, lp::SolveStatus::Optimal);

  // A "sweep" whose job body hands the multi-threaded solve to a raw
  // std::thread — the exact shape that used to lose the clamp.
  SweepSpec spec;
  spec.max_jobs = 2;
  spec.thresholds = {25.0, 50.0};
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  const int before = Scheduler::global().num_threads();
  const SweepReport report = SweepRunner(options).run_jobs(
      expand_spec(spec), [&m, &ref](const JobSpec&) {
        heur::GapFindResult r;
        std::thread helper([&m, &ref, &r] {
          MipOptions opt;
          opt.threads = 3;
          const auto sol = BranchAndBound(opt).solve(m);
          r.status = sol.status;
          r.gap = sol.objective;
          // Bit-identical to the serial answer even from a helper
          // thread inside a sweep worker.
          EXPECT_EQ(sol.objective, ref.objective);
        });
        helper.join();
        r.volumes = {1.0};
        return r;
      });
  EXPECT_EQ(report.num_ok, 2);
  // The pool grew to at most max(before, sweep width - 1, mip threads -
  // 1) — each fork_join's caller is one of its own runners — and the
  // nested request did not multiply (2 sweep lanes x 3 mip threads
  // would be 6).
  const int after = Scheduler::global().num_threads();
  EXPECT_EQ(after, std::max({before, 2 - 1, 3 - 1}));
}

}  // namespace
}  // namespace metaopt::runner
