// Tests for the bound-propagation presolve.
#include <gtest/gtest.h>

#include "lp/presolve.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "util/rng.h"

namespace metaopt::lp {
namespace {

TEST(Presolve, TightensFromSingletonRow) {
  Model m;
  Var x = m.add_var("x", 0.0, 100.0);
  m.add_constraint(LinExpr(x) <= LinExpr(7.0));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.ub[x.id], 7.0, 1e-9);
}

TEST(Presolve, DetectsInfeasibleRow) {
  Model m;
  Var x = m.add_var("x", 0.0, 1.0);
  Var y = m.add_var("y", 0.0, 1.0);
  m.add_constraint(x + y >= LinExpr(3.0));  // max activity 2 < 3
  EXPECT_TRUE(presolve(m).infeasible);
}

TEST(Presolve, FlagsRedundantRow) {
  Model m;
  Var x = m.add_var("x", 0.0, 1.0);
  Var y = m.add_var("y", 0.0, 1.0);
  ConId c = m.add_constraint(x + y <= LinExpr(5.0));  // max activity 2
  const PresolveResult r = presolve(m);
  EXPECT_TRUE(r.redundant_rows[c]);
}

TEST(Presolve, PropagatesThroughBigMIndicator) {
  // b fixed to 1 forces x <= 0 through the indicator row.
  Model m;
  Var x = m.add_var("x", 0.0, 50.0);
  Var b = m.add_binary("b");
  m.add_constraint(LinExpr(x) + 50.0 * LinExpr(b) <= LinExpr(50.0));
  std::vector<double> lb{0.0, 1.0};  // node fixed b = 1
  std::vector<double> ub{50.0, 1.0};
  const PresolveResult r = presolve(m, &lb, &ub);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.ub[x.id], 0.0, 1e-9);
}

TEST(Presolve, RoundsFractionalBinaryBounds) {
  Model m;
  Var b = m.add_binary("b");
  Var x = m.add_var("x", 0.0, 1.0);
  // 2b >= 1.2 forces b >= 0.6 -> rounds to b = 1.
  m.add_constraint(2.0 * LinExpr(b) + 0.0 * x >= LinExpr(1.2));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.lb[b.id], 1.0, 1e-9);
}

TEST(Presolve, EqualityPropagatesBothDirections) {
  Model m;
  Var x = m.add_var("x", 0.0, 10.0);
  Var y = m.add_var("y", 4.0, 4.0);
  m.add_constraint(x + y == LinExpr(6.0));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.lb[x.id], 2.0, 1e-9);
  EXPECT_NEAR(r.ub[x.id], 2.0, 1e-9);
}

TEST(Presolve, LeavesInfiniteActivitiesAlone) {
  Model m;
  Var x = m.add_var("x", -kInf, kInf);
  Var y = m.add_var("y", -kInf, kInf);
  m.add_constraint(x + y <= LinExpr(5.0));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_TRUE(std::isinf(r.ub[x.id]));
}

class PresolvePreservesOptimumTest : public ::testing::TestWithParam<int> {};

TEST_P(PresolvePreservesOptimumTest, SameLpOptimum) {
  // Presolved bounds must not change the LP optimum.
  util::Rng rng(700 + GetParam());
  Model m;
  const int n = rng.uniform_int(2, 5);
  std::vector<Var> xs;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.add_var("x" + std::to_string(j), 0.0,
                           rng.uniform(1.0, 5.0)));
  }
  for (int r = 0; r < rng.uniform_int(1, 4); ++r) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e.add_term(xs[j], rng.uniform(-1.0, 2.0));
    m.add_constraint(e <= LinExpr(rng.uniform(0.5, 4.0)));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(xs[j], rng.uniform(0.0, 2.0));
  m.set_objective(ObjSense::Maximize, obj);

  const Solution plain = SimplexSolver().solve(m);
  const PresolveResult pre = presolve(m);
  ASSERT_FALSE(pre.infeasible);
  WarmStartContext ctx(m);
  const Solution tightened =
      SimplexSolver().solve_with_bounds(m, pre.lb, pre.ub, ctx);
  ASSERT_EQ(plain.status, SolveStatus::Optimal);
  ASSERT_EQ(tightened.status, SolveStatus::Optimal);
  EXPECT_NEAR(plain.objective, tightened.objective, 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolvePreservesOptimumTest,
                         ::testing::Range(1, 31));

TEST(Presolve, BnbWithAndWithoutPresolveAgree) {
  Model m;
  Var a = m.add_binary("a");
  Var b = m.add_binary("b");
  Var x = m.add_var("x", 0.0, 10.0);
  m.add_constraint(LinExpr(x) + 10.0 * LinExpr(a) <= LinExpr(10.0));
  m.add_constraint(a + b >= LinExpr(1.0));
  m.set_objective(ObjSense::Maximize, x + 3.0 * LinExpr(a) + LinExpr(b));
  mip::MipOptions with, without;
  without.use_presolve = false;
  const auto s1 = mip::BranchAndBound(with).solve(m);
  const auto s2 = mip::BranchAndBound(without).solve(m);
  ASSERT_EQ(s1.status, SolveStatus::Optimal);
  ASSERT_EQ(s2.status, SolveStatus::Optimal);
  EXPECT_NEAR(s1.objective, s2.objective, 1e-7);
}

}  // namespace
}  // namespace metaopt::lp
