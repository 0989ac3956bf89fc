// The process-wide thread pool, through its one primitive fork_join:
// the lost-wakeup regression, the inline-run deadlock-freedom rule,
// every index once at any width (body(0) on the caller), repeatable,
// nestable and shared by concurrent callers, monotone clamped pool
// growth bounded by the max component request, and the end-to-end
// oversubscription contract — a nested multi-threaded B&B inside a
// sweep job, even one moved onto a raw helper thread, never multiplies
// worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mip/branch_and_bound.h"
#include "obs/metrics.h"
#include "runner/scheduler.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "util/rng.h"

namespace metaopt::runner {
namespace {

TEST(SchedulerTest, ForkJoinNeverLosesTheWakeup) {
  // Regression: a group must be queued under the mutex the workers'
  // wait predicate reads before they are notified. Otherwise the
  // notify can land between a sleeping worker's predicate check and its
  // block, and the index is stranded. body(0) waits on a flag only
  // body(1) sets, so the caller cannot run index 1 itself (which would
  // hide the bug) and a lost wakeup hangs the test. First in the file,
  // so a lone run has a one-worker pool: one index at a time on it
  // maximizes the chance of hitting that window.
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 2000; ++round) {
    std::atomic<bool> done{false};
    std::thread::id ran_on;
    sched.fork_join(2, [&](int i) {
      if (i == 0) {
        done.wait(false);
        return;
      }
      ran_on = std::this_thread::get_id();
      done.store(true);
      done.notify_one();
    });
    ASSERT_NE(ran_on, caller) << "round " << round;
  }
}

TEST(SchedulerTest, UnclaimedIndexRunsInlineOnTheCaller) {
  // The deadlock-freedom rule: an index no worker has claimed runs on
  // the fork_join caller. Block every worker inside an outer fork_join,
  // then fork from the outer caller: the inner index 1 must run here.
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(2);
  const int workers = sched.num_threads();
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  std::thread::id ran_on;
  sched.fork_join(workers + 1, [&](int i) {
    if (i > 0) {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return;
    }
    while (blocked.load() < workers) std::this_thread::yield();
    sched.fork_join(2, [&ran_on](int j) {
      if (j == 1) ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    release.store(true);
  });
}

TEST(SchedulerTest, ForkJoinRunsEveryIndexOnce) {
  for (const int width : {1, 2, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(width));
    std::thread::id first;
    Scheduler::global().fork_join(width, [&runs, &first](int i) {
      if (i == 0) first = std::this_thread::get_id();
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
    EXPECT_EQ(first, std::this_thread::get_id());
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
  // a pool worker (or the caller): inner indices no idle worker takes
  // run inline on the inner group's caller.
  std::atomic<int> count{0};
  Scheduler::global().fork_join(3, [&count](int) {
    Scheduler::global().fork_join(5, [&count](int) { count.fetch_add(1); });
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 3 * 6);
}

TEST(SchedulerTest, ConcurrentCallersShareTheQueue) {
  // Several raw threads fork at once, so several groups are open in the
  // queue together; every index of every group still runs exactly once.
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&count] {
      for (int round = 0; round < 50; ++round) {
        Scheduler::global().fork_join(3, [&count](int) { count.fetch_add(1); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(count.load(), 4 * 50 * 3);
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
  sched.ensure_threads(INT_MIN);
  EXPECT_EQ(sched.num_threads(), width);
  // A width of at most 1 runs body(0) on the caller and grows nothing.
  for (const int w : {1, 0, INT_MIN}) {
    int runs = 0;
    sched.fork_join(w, [&runs](int i) { runs += i == 0 ? 1 : 100; });
    EXPECT_EQ(runs, 1) << "width " << w;
  }
  EXPECT_EQ(sched.num_threads(), width);
  EXPECT_LE(width, Scheduler::kMaxWorkers);
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
