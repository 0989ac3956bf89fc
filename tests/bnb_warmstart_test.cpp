// Warm-started branch-and-bound: optimal objectives checked against
// exhaustive enumeration of the binaries (each fixed-binary LP solved by
// the test-only dense tableau), thread-count bit-identity, solver-hoist
// and warm-start observability counters, and node-limit early stops
// reporting a bound that still covers the true optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mip/branch_and_bound.h"
#include "obs/metrics.h"
#include "tableau_reference.h"
#include "util/rng.h"

namespace metaopt::mip {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::SolveStatus;
using lp::Var;

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// A knapsack-with-side-constraints family sized to force real
/// branching: fractional LP optima, conflicting cover rows, and a
/// continuous coupling variable so node LPs are not pure-binary.
Model make_random_mip(util::Rng& rng, int* n_out = nullptr) {
  const int n = rng.uniform_int(4, 8);
  if (n_out != nullptr) *n_out = n;
  Model m;
  std::vector<Var> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs.push_back(m.add_binary("b" + std::to_string(i)));
  }
  const Var y = m.add_var("y", 0.0, rng.uniform(2.0, 5.0));

  LinExpr weight;
  LinExpr profit;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const double w = rng.uniform(1.0, 5.0);
    const double p = rng.uniform(1.0, 6.0);
    total_weight += w;
    weight += w * LinExpr(xs[i]);
    profit += p * LinExpr(xs[i]);
  }
  // Capacity strictly inside (0, total): the LP relaxation sits on the
  // knapsack facet with a fractional item, so the root always branches.
  const double cap = total_weight * rng.uniform(0.35, 0.65);
  m.add_constraint(weight + 0.5 * y <= LinExpr(cap));
  // A cover row conflicting with the capacity keeps subtrees alive.
  LinExpr cover;
  for (int i = 0; i < n; i += 2) cover += LinExpr(xs[i]);
  m.add_constraint(cover + y >= LinExpr(1.0));
  m.set_objective(ObjSense::Maximize, profit + 0.25 * y);
  return m;
}

/// The MIP optimum by brute force: every assignment of the binaries,
/// each fixed-binary LP solved on the dense tableau. Returns -inf when
/// no assignment is feasible (the family is maximized).
double enumerated_optimum(const Model& m) {
  std::vector<lp::VarId> binaries;
  std::vector<double> lb(m.num_vars());
  std::vector<double> ub(m.num_vars());
  for (lp::VarId v = 0; v < m.num_vars(); ++v) {
    lb[v] = m.var(v).lb;
    ub[v] = m.var(v).ub;
    if (m.var(v).kind == lp::VarKind::Binary) binaries.push_back(v);
  }
  double best = -lp::kInf;
  for (unsigned mask = 0; mask < (1u << binaries.size()); ++mask) {
    for (std::size_t i = 0; i < binaries.size(); ++i) {
      const double bit = (mask >> i) & 1u ? 1.0 : 0.0;
      lb[binaries[i]] = bit;
      ub[binaries[i]] = bit;
    }
    const lp::Solution sol = testref::solve_tableau(m, lb, ub);
    if (sol.status == SolveStatus::Optimal) {
      best = std::max(best, sol.objective);
    } else {
      EXPECT_EQ(sol.status, SolveStatus::Infeasible) << "mask " << mask;
    }
  }
  return best;
}

TEST(BnbWarmStart, RandomMipsMatchExhaustiveEnumeration) {
  // Differential sweep: the warm-started tree must prove the optimum
  // that enumerating every binary assignment finds, and the thread
  // count must be invisible on top of that: threads 2 and 4 must
  // reproduce the 1-thread answer exactly (the parallel search explores
  // the same tree).
  util::Rng rng(util::derive_seed(20260807, 41));
  const MipOptions serial;
  int branched = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Model m = make_random_mip(rng);
    const auto sol = BranchAndBound(serial).solve(m);
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "trial " << trial;
    const double oracle = enumerated_optimum(m);
    EXPECT_NEAR(sol.objective, oracle, 1e-6) << "trial " << trial;
    EXPECT_NEAR(sol.best_bound, oracle, 1e-6) << "trial " << trial;
    for (const int threads : {2, 4}) {
      MipOptions opt = serial;
      opt.threads = threads;
      const auto par = BranchAndBound(opt).solve(m);
      ASSERT_EQ(par.status, sol.status)
          << "trial " << trial << " threads=" << threads;
      EXPECT_EQ(par.objective, sol.objective)
          << "trial " << trial << " threads=" << threads;
      EXPECT_EQ(par.best_bound, sol.best_bound)
          << "trial " << trial << " threads=" << threads;
    }
    if (sol.iterations > 1) ++branched;
  }
  // The family is built to branch; if it stopped doing so the sweep
  // would silently stop exercising basis inheritance.
  EXPECT_GT(branched, 20);
}

TEST(BnbWarmStart, WarmSolveMetricsAndSolverHoist) {
  // One warm B&B tree must (a) construct exactly one SimplexSolver for
  // many node LPs — the hoist regression test — and (b) answer most
  // child nodes on the warm dual path with rare fallbacks.
  obs::set_enabled(true);
  util::Rng rng(util::derive_seed(20260807, 42));
  const MipOptions opt;
  const Model m = make_random_mip(rng);

  const obs::MetricsSnapshot before = obs::snapshot();
  const auto sol = BranchAndBound(opt).solve(m);
  const obs::MetricsSnapshot after = obs::snapshot();
  obs::set_enabled(false);

  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_GT(sol.iterations, 1) << "instance too easy to exercise warm starts";

  const obs::MetricsSnapshot d = obs::diff(before, after);
  EXPECT_EQ(metric(d, "bnb.solver_instances"), 1.0);
  EXPECT_GT(metric(d, "bnb.lp_solves"), 1.0);

  const double warm_solves = metric(d, "simplex.warm_solves");
  const double fallbacks = metric(d, "simplex.warm_fallbacks");
  EXPECT_GT(warm_solves, 0.0);
  // Fallbacks should be the rare exception, not the steady state.
  EXPECT_LE(fallbacks, warm_solves / 4.0 + 1.0);

  // Gauge: fraction of node LPs answered from an inherited basis.
  // diff() keeps `after`'s value, but read the full snapshot in case an
  // identical earlier value made the delta zero and dropped the entry.
  const obs::MetricValue* reuse = after.find("bnb.basis_reuse_ratio");
  ASSERT_NE(reuse, nullptr);
  EXPECT_GT(reuse->value, 0.0);
  EXPECT_LE(reuse->value, 1.0);
}

TEST(BnbWarmStart, NodeLimitMaximizeReportsValidBound) {
  // Stopping on the node budget must not corrupt the proven bound: at
  // every limit it still has to cover the true optimum (3.5 here: five
  // 0.7-profit binaries fit under the 5.2 cardinality cap).
  Model m;
  std::vector<Var> xs;
  LinExpr obj;
  LinExpr lhs;
  for (int i = 0; i < 6; ++i) {
    xs.push_back(m.add_binary("b" + std::to_string(i)));
    obj += 0.7 * LinExpr(xs[i]);
    lhs += LinExpr(xs[i]);
  }
  m.add_constraint(lhs <= LinExpr(5.2));
  m.set_objective(ObjSense::Maximize, obj);

  // A weak seed (one binary, 0.7) gives every stop an incumbent far
  // below the optimum, so a bound that fell back to the incumbent would
  // undercut the optimum.
  MipCallbacks cb;
  std::vector<double> seed(6, 0.0);
  seed[0] = 1.0;
  cb.initial_incumbents.emplace_back(0.7, seed);
  int early = 0;
  for (long limit = 1; limit <= 12; ++limit) {
    MipOptions opt;
    opt.max_nodes = limit;
    const auto sol = BranchAndBound(opt).solve(m, cb);
    ASSERT_FALSE(sol.values.empty()) << "limit " << limit;
    // The bound must stay on the correct side of both the incumbent and
    // the true optimum, and below the root relaxation (0.7 * 5.2 = 3.64).
    EXPECT_GE(sol.best_bound, sol.objective - 1e-9) << "limit " << limit;
    EXPECT_GE(sol.best_bound, 3.5 - 1e-6) << "limit " << limit;
    EXPECT_LE(sol.best_bound, 3.64 + 1e-6) << "limit " << limit;
    if (sol.status == SolveStatus::Feasible) ++early;
  }
  EXPECT_GT(early, 0);
}

TEST(BnbWarmStart, NodeLimitMinimizeReportsValidBound) {
  // Minimize mirror: the bound must stay a valid *lower* bound on the
  // true optimum (4: pick c), also when the limit stops the search
  // before the root relaxation is solved.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_constraint(a + c >= LinExpr(1.0));
  m.add_constraint(b + c >= LinExpr(1.0));
  m.set_objective(ObjSense::Minimize, 3.0 * a + 3.0 * b + 4.0 * c);

  MipCallbacks cb;
  cb.initial_incumbents.emplace_back(6.0, std::vector<double>{1.0, 1.0, 0.0});
  for (long limit = 0; limit <= 3; ++limit) {
    MipOptions opt;
    opt.max_nodes = limit;
    const auto sol = BranchAndBound(opt).solve(m, cb);
    ASSERT_TRUE(sol.has_solution()) << "limit " << limit;
    EXPECT_LE(sol.objective, 6.0 + 1e-9) << "limit " << limit;
    EXPECT_LE(sol.best_bound, sol.objective + 1e-9) << "limit " << limit;
    EXPECT_LE(sol.best_bound, 4.0 + 1e-6) << "limit " << limit;
    if (limit == 0) {
      EXPECT_EQ(sol.status, SolveStatus::Feasible);
      EXPECT_NEAR(sol.objective, 6.0, 1e-9);
    }
  }
}

TEST(BnbWarmStart, NodeLimitAboveTreeSizeStaysOptimal) {
  // A node budget the tree never reaches must not demote a finished
  // solve: the status is Optimal and the bound equals the objective.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  m.add_constraint(a + b <= LinExpr(1.0));
  m.set_objective(ObjSense::Maximize, 2.0 * a + LinExpr(b));
  const auto full = BranchAndBound().solve(m);
  ASSERT_EQ(full.status, SolveStatus::Optimal);
  MipOptions opt;
  opt.max_nodes = full.iterations + 1;
  const auto sol = BranchAndBound(opt).solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(sol.iterations, full.iterations);
  EXPECT_NEAR(sol.objective, 2.0, 1e-7);
  EXPECT_NEAR(sol.best_bound, 2.0, 1e-7);
}

}  // namespace
}  // namespace metaopt::mip
