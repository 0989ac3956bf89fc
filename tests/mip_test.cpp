// Unit tests for branch-and-bound over binaries and complementarity pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "mip/branch_and_bound.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace metaopt::mip {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::SolveStatus;
using lp::Var;

TEST(BranchAndBound, SolvesPureLp) {
  Model m;
  Var x = m.add_var("x");
  m.add_constraint(LinExpr(x) <= LinExpr(4.0));
  m.set_objective(ObjSense::Maximize, LinExpr(x));
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-8);
}

TEST(BranchAndBound, SolvesSmallKnapsack) {
  Model m;
  Var a = m.add_binary("a");
  Var b = m.add_binary("b");
  Var c = m.add_binary("c");
  m.add_constraint(2.0 * a + 3.0 * b + LinExpr(c) <= LinExpr(3.0));
  m.set_objective(ObjSense::Maximize, 5.0 * a + 4.0 * b + 3.0 * c);
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 8.0, 1e-7);
  EXPECT_NEAR(sol.values[a.id], 1.0, 1e-6);
  EXPECT_NEAR(sol.values[b.id], 0.0, 1e-6);
  EXPECT_NEAR(sol.values[c.id], 1.0, 1e-6);
}

TEST(BranchAndBound, EnforcesComplementarity) {
  Model m;
  Var x = m.add_var("x", 0.0, 5.0);
  Var y = m.add_var("y", 0.0, 5.0);
  m.add_complementarity(x, y);
  m.set_objective(ObjSense::Maximize, x + y);
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
  EXPECT_LE(std::min(sol.values[x.id], sol.values[y.id]), 1e-6);
}

TEST(BranchAndBound, ComplementarityChain) {
  // max x0+x1+x2 with pairs (x0,x1), (x1,x2); ubs 1, 5, 1.
  // Best: x1 = 5 alone.
  Model m;
  Var x0 = m.add_var("x0", 0.0, 1.0);
  Var x1 = m.add_var("x1", 0.0, 5.0);
  Var x2 = m.add_var("x2", 0.0, 1.0);
  m.add_complementarity(x0, x1);
  m.add_complementarity(x1, x2);
  m.set_objective(ObjSense::Maximize, x0 + x1 + x2);
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  Model m;
  Var a = m.add_binary("a");
  Var b = m.add_binary("b");
  m.add_constraint(a + b >= LinExpr(1.5));
  m.add_constraint(a + b <= LinExpr(1.5));  // forces a+b = 1.5: impossible
  m.set_objective(ObjSense::Maximize, a + b);
  EXPECT_EQ(BranchAndBound().solve(m).status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, MinimizationWithBinaries) {
  // Cover problem: pick cheapest subset covering both rows.
  Model m;
  Var a = m.add_binary("a");  // covers r1
  Var b = m.add_binary("b");  // covers r2
  Var c = m.add_binary("c");  // covers both
  m.add_constraint(a + c >= LinExpr(1.0));
  m.add_constraint(b + c >= LinExpr(1.0));
  m.set_objective(ObjSense::Minimize, 3.0 * a + 3.0 * b + 4.0 * c);
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-7);
  EXPECT_NEAR(sol.values[c.id], 1.0, 1e-6);
}

TEST(BranchAndBound, BigMIndicatorPattern) {
  // b = 1 forces x = 0; maximize x + 2b with x <= 3.
  // Taking b=1 gives 2, taking b=0 gives 3: optimum 3.
  Model m;
  Var x = m.add_var("x", 0.0, 3.0);
  Var b = m.add_binary("b");
  const double big_m = 10.0;
  m.add_constraint(LinExpr(x) <= big_m * (1.0 - LinExpr(b)) + 0.0 * x);
  m.set_objective(ObjSense::Maximize, x + 2.0 * b);
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-7);
}

TEST(BranchAndBound, NodeLimitStopsEarly) {
  Model m;
  std::vector<Var> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(m.add_binary("b" + std::to_string(i)));
  LinExpr obj;
  for (int i = 0; i < 6; ++i) obj += 0.7 * LinExpr(xs[i]);
  LinExpr lhs;
  for (int i = 0; i < 6; ++i) lhs += LinExpr(xs[i]);
  m.add_constraint(lhs <= LinExpr(5.2));
  m.set_objective(ObjSense::Maximize, obj);
  // The root relaxation is fractional, so one node cannot finish the
  // tree: the search stops on the node limit and keeps the seed.
  MipOptions opt;
  opt.max_nodes = 1;
  MipCallbacks cb;
  std::vector<double> seed(6, 0.0);
  seed[0] = 1.0;
  cb.initial_incumbents.emplace_back(0.7, seed);
  const auto sol = BranchAndBound(opt).solve(m, cb);
  EXPECT_EQ(sol.status, SolveStatus::Feasible);
  EXPECT_EQ(sol.iterations, 1);
  EXPECT_GE(sol.objective, 0.7 - 1e-9);
}

TEST(BranchAndBound, PrimalHeuristicSeedsIncumbent) {
  Model m;
  Var x = m.add_var("x", 0.0, 5.0);
  Var y = m.add_var("y", 0.0, 5.0);
  m.add_complementarity(x, y);
  m.set_objective(ObjSense::Maximize, x + 0.5 * y);
  MipCallbacks cb;
  int heuristic_calls = 0;
  cb.primal_heuristic = [&](const std::vector<double>&)
      -> std::optional<std::pair<double, std::vector<double>>> {
    ++heuristic_calls;
    return std::make_pair(5.0, std::vector<double>{5.0, 0.0});
  };
  std::vector<double> incumbents;
  cb.on_incumbent = [&](double obj, double, const std::vector<double>&) {
    incumbents.push_back(obj);
  };
  const auto sol = BranchAndBound().solve(m, cb);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
  EXPECT_GE(heuristic_calls, 1);
  ASSERT_FALSE(incumbents.empty());
}

TEST(BranchAndBound, RejectsInfeasibleHeuristicSolutions) {
  Model m;
  Var x = m.add_var("x", 0.0, 5.0);
  Var y = m.add_var("y", 0.0, 5.0);
  m.add_complementarity(x, y);
  m.set_objective(ObjSense::Maximize, x + y);
  MipCallbacks cb;
  cb.primal_heuristic = [&](const std::vector<double>&)
      -> std::optional<std::pair<double, std::vector<double>>> {
    // Claims objective 10 with both vars positive: violates the pair.
    return std::make_pair(10.0, std::vector<double>{5.0, 5.0});
  };
  const auto sol = BranchAndBound().solve(m, cb);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);  // bogus incumbent rejected
}

TEST(BranchAndBound, TimeLimitReturnsBestEffort) {
  // A larger cover-style instance; with a microscopic time budget we
  // should still terminate gracefully.
  util::Rng rng(7);
  Model m;
  std::vector<Var> xs;
  for (int i = 0; i < 30; ++i) xs.push_back(m.add_binary("b" + std::to_string(i)));
  for (int r = 0; r < 25; ++r) {
    LinExpr e;
    for (int i = 0; i < 30; ++i) {
      if (rng.bernoulli(0.3)) e += LinExpr(xs[i]);
    }
    e += LinExpr(xs[r % 30]);
    m.add_constraint(e >= LinExpr(1.0));
  }
  LinExpr obj;
  for (int i = 0; i < 30; ++i) obj += rng.uniform(1.0, 3.0) * LinExpr(xs[i]);
  m.set_objective(ObjSense::Minimize, obj);
  MipOptions opt;
  opt.time_limit_seconds = 0.05;
  const auto sol = BranchAndBound(opt).solve(m);
  EXPECT_TRUE(sol.status == SolveStatus::TimeLimit ||
              sol.status == SolveStatus::Feasible ||
              sol.status == SolveStatus::Optimal);
}

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// max 3a + 2b s.t. 2a + 2b <= 3: the root LP is fractional, so it needs
/// simplex pivots.
Model two_binary_knapsack() {
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  m.add_constraint(2.0 * a + 2.0 * b <= LinExpr(3.0));
  m.set_objective(ObjSense::Maximize, 3.0 * a + 2.0 * b);
  return m;
}

TEST(BranchAndBound, FailedNodeLpNeverClaimsAProof) {
  // A zero LP iteration budget makes every node LP fail (IterationLimit,
  // no values). The tree must neither read the missing relaxation point
  // nor prove anything over the subtree it never explored.
  const Model m = two_binary_knapsack();
  MipOptions opt;
  opt.lp.max_iterations = 0;

  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  const auto sol = BranchAndBound(opt).solve(m);
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);

  EXPECT_NE(sol.status, SolveStatus::Optimal);
  EXPECT_NE(sol.status, SolveStatus::Infeasible);
  EXPECT_EQ(sol.status, SolveStatus::Error);
  EXPECT_GE(metric(d, "bnb.nodes_failed"), 1.0);

  // With an incumbent the answer is Feasible, and the failed root's
  // bound stays open instead of collapsing onto the incumbent.
  MipCallbacks cb;
  cb.initial_incumbents.push_back({2.0, {0.0, 1.0}});
  const auto seeded = BranchAndBound(opt).solve(m, cb);
  EXPECT_EQ(seeded.status, SolveStatus::Feasible);
  EXPECT_NEAR(seeded.objective, 2.0, 1e-9);
  EXPECT_GT(seeded.best_bound, seeded.objective);
}

class RandomKnapsackTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomKnapsackTest, MatchesExhaustive) {
  util::Rng rng(500 + GetParam());
  const int n = rng.uniform_int(3, 10);
  std::vector<double> w(n), v(n);
  for (int i = 0; i < n; ++i) {
    w[i] = rng.uniform(0.5, 3.0);
    v[i] = rng.uniform(0.5, 3.0);
  }
  const double cap = rng.uniform(2.0, 6.0);
  // Exhaustive reference.
  double ref = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double tw = 0.0, tv = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        tw += w[i];
        tv += v[i];
      }
    }
    if (tw <= cap) ref = std::max(ref, tv);
  }
  Model m;
  std::vector<Var> xs;
  LinExpr we, ve;
  for (int i = 0; i < n; ++i) {
    xs.push_back(m.add_binary("b" + std::to_string(i)));
    we += w[i] * LinExpr(xs[i]);
    ve += v[i] * LinExpr(xs[i]);
  }
  m.add_constraint(we <= LinExpr(cap));
  m.set_objective(ObjSense::Maximize, ve);
  const auto sol = BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
  EXPECT_NEAR(sol.objective, ref, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKnapsackTest, ::testing::Range(1, 31));

}  // namespace
}  // namespace metaopt::mip
