// Tests for the §5 primal-dual rewrite and the gap-bounding API.
#include <gtest/gtest.h>

#include "core/adversarial.h"
#include "kkt/primal_dual.h"
#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "net/topologies.h"
#include "te/demand.h"

namespace metaopt::kkt {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::SolveStatus;
using lp::Var;

TEST(PrimalDual, ExactWhenParameterFixed) {
  // Inner: max x s.t. x <= theta with theta fixed at 5. With a
  // degenerate theta box the McCormick envelope is exact, so the
  // rewrite pins x to the true optimum.
  Model outer;
  const Var theta = outer.add_var("theta", 5.0, 5.0);
  const Var x = outer.add_var("x");
  InnerProblem inner(ObjSense::Maximize);
  inner.add_decision_var(x);
  inner.add_constraint(LinExpr(x) <= LinExpr(theta), "vol", 1.0);
  inner.set_bound_dual_bound(1.0);
  inner.set_objective(LinExpr(x));
  const PrimalDualArtifacts art = emit_primal_dual(outer, inner, "pd.");
  EXPECT_EQ(art.num_bilinear_terms, 1);

  outer.set_objective(ObjSense::Minimize, LinExpr(x));  // push x down
  const auto sol = lp::SimplexSolver().solve(outer);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.values[x.id], 5.0, 1e-6);  // strong duality forces opt
}

TEST(PrimalDual, RelaxationNeverCutsTruePoints) {
  // Free theta in [0, 10]: for every theta the exact optimal pair
  // (x = theta, lambda = 1, w = theta) must be feasible.
  Model outer;
  const Var theta = outer.add_var("theta", 0.0, 10.0);
  const Var x = outer.add_var("x");
  InnerProblem inner(ObjSense::Maximize);
  inner.add_decision_var(x);
  inner.add_constraint(LinExpr(x) <= LinExpr(theta), "vol", 1.0);
  inner.set_bound_dual_bound(1.0);
  inner.set_objective(LinExpr(x));
  const PrimalDualArtifacts art = emit_primal_dual(outer, inner, "pd.");

  for (double t : {0.0, 3.0, 10.0}) {
    std::vector<double> assign(outer.num_vars(), 0.0);
    assign[theta.id] = t;
    assign[x.id] = t;
    assign[art.duals[0].id] = 1.0;  // volume row active
    assign[art.duals[1].id] = 0.0;  // x >= 0 row
    assign[art.products[0].id] = t; // w = lambda * theta
    EXPECT_LE(outer.max_violation(assign), 1e-9) << "theta=" << t;
  }
}

TEST(PrimalDual, BoundDominatesExactOptimum) {
  // max over theta in [0,10] of inner optimum == 10; the relaxed bound
  // must be >= 10 (and with this 1-D structure, exactly 10).
  Model outer;
  const Var theta = outer.add_var("theta", 0.0, 10.0);
  const Var x = outer.add_var("x");
  InnerProblem inner(ObjSense::Maximize);
  inner.add_decision_var(x);
  inner.add_constraint(LinExpr(x) <= LinExpr(theta), "vol", 1.0);
  inner.set_bound_dual_bound(1.0);
  inner.set_objective(LinExpr(x));
  const PrimalDualArtifacts art = emit_primal_dual(outer, inner, "pd.");
  outer.set_objective(ObjSense::Maximize, art.objective_expr);
  const auto sol = lp::SimplexSolver().solve(outer);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_GE(sol.objective, 10.0 - 1e-6);
}

TEST(PrimalDual, RequiresFiniteDualBounds) {
  Model outer;
  const Var x = outer.add_var("x");
  InnerProblem inner(ObjSense::Maximize);
  inner.add_decision_var(x);
  inner.add_constraint(LinExpr(x) <= LinExpr(4.0));  // no dual bound
  inner.set_objective(LinExpr(x));
  EXPECT_THROW(emit_primal_dual(outer, inner, "pd."), std::invalid_argument);
}

TEST(PrimalDual, RequiresBoundedParameters) {
  Model outer;
  const Var theta = outer.add_var("theta", 0.0, lp::kInf);
  const Var x = outer.add_var("x");
  InnerProblem inner(ObjSense::Maximize);
  inner.add_decision_var(x);
  inner.add_constraint(LinExpr(x) <= LinExpr(theta), "vol", 1.0);
  inner.set_bound_dual_bound(1.0);
  inner.set_objective(LinExpr(x));
  EXPECT_THROW(emit_primal_dual(outer, inner, "pd."), std::invalid_argument);
}

TEST(PrimalDual, RejectsParameterInObjective) {
  Model outer;
  const Var theta = outer.add_var("theta", 0.0, 1.0);
  const Var x = outer.add_var("x", 0.0, 1.0);
  InnerProblem inner(ObjSense::Maximize);
  inner.add_decision_var(x);
  inner.set_bound_dual_bound(1.0);
  inner.set_objective(LinExpr(x) + LinExpr(theta));
  EXPECT_THROW(emit_primal_dual(outer, inner, "pd."), std::invalid_argument);
}

}  // namespace
}  // namespace metaopt::kkt

namespace metaopt::core {
namespace {

using net::Topology;
namespace topologies = net::topologies;

TEST(GapBound, PopBoundDominatesFoundGap) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  te::PopConfig pop;
  pop.num_partitions = 2;
  const std::vector<std::uint64_t> seeds{1, 2};

  // Same restricted adversarial support for the search and the bound so
  // the bracket "found <= worst <= bound" is over one search space.
  std::vector<bool> mask(paths.num_pairs(), false);
  for (int k = 0; k < paths.num_pairs(); k += 4) mask[k] = true;

  AdversarialOptions options;
  options.mip.time_limit_seconds = 8.0;
  options.seed_search_seconds = 2.0;
  options.pair_mask = mask;
  const AdversarialGapFinder finder(topo, paths);
  const AdversarialResult found = finder.find_pop_gap(pop, seeds, options);

  AdversarialOptions bound_options;
  bound_options.mip.time_limit_seconds = 60.0;
  bound_options.pair_mask = mask;
  const heur::GapBoundResult bound =
      finder.bound_pop_gap(pop, seeds, bound_options);
  // Sanitizer builds run the solver an order of magnitude slower, so the
  // time-limited bounding solve may stop before finding an incumbent.
  // best_bound (and hence upper_bound) is proven regardless — it starts
  // at the root relaxation score — so the dominance check below stays
  // valid; only the status assertion is relaxed there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool accept_time_limit = true;
#else
  const bool accept_time_limit = false;
#endif
  ASSERT_TRUE(bound.status == lp::SolveStatus::Optimal ||
              bound.status == lp::SolveStatus::Feasible ||
              (accept_time_limit &&
               bound.status == lp::SolveStatus::TimeLimit));
  EXPECT_GE(bound.upper_bound, found.gap - 1e-4);
  // The bounding model has no complementarity pairs at all.
  EXPECT_EQ(bound.stats.num_complementarities, 0);
}

TEST(GapBound, DpBoundDominatesFig1WorstCase) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options;
  options.demand_ub = 200.0;
  options.mip.time_limit_seconds = 30.0;
  const heur::GapBoundResult bound =
      AdversarialGapFinder(topo, paths).bound_dp_gap(dp, options);
  ASSERT_TRUE(bound.status == lp::SolveStatus::Optimal ||
              bound.status == lp::SolveStatus::Feasible ||
              bound.status == lp::SolveStatus::TimeLimit);
  // The true worst case is exactly 100 (proved by the KKT search).
  EXPECT_GE(bound.upper_bound, 100.0 - 1e-4);
}

}  // namespace
}  // namespace metaopt::core
