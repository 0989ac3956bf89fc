// Classic cycling instances against the revised simplex anti-degeneracy
// machinery.
//
// Beale's 1955 example and the Marshall–Suurballe family are the
// canonical LPs on which textbook Dantzig pricing cycles forever: the
// origin is a massively degenerate vertex and every pivot has step
// zero. The solver must terminate anyway — via the stall switch to
// Bland's rule, via the EXPAND-style bound perturbation, or both — and
// the answer must agree with the independently safeguarded dense
// tableau reference (tests/support) and pass the LP certifier.
//
// Each instance runs in a 4-way config sweep (perturbation on/off x
// stall limit tiny/default) under a hard iteration budget: returning
// IterationLimit on these tiny problems IS the cycling bug.
//
// The revised engine prices over a cyclic window of at least 64
// columns; these LPs have fewer, so every pricing pass scans all columns
// from column 0 and takes the first largest reduced cost, which is
// exactly Dantzig's choice.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/certify.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "lp/solution.h"
#include "tableau_reference.h"

namespace metaopt {
namespace {

using lp::Model;
using lp::ObjSense;
using lp::Solution;
using lp::SolveStatus;

/// Beale (1955): min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4. Cycles after
/// six Dantzig pivots in the plain tableau method. The x3 <= 1 row
/// bounds the problem; the optimum is z* = -1/20 at x = (1/25, 0, 1, 0).
Model beale() {
  Model model;
  const lp::Var x1 = model.add_var("x1", 0.0, lp::kInf);
  const lp::Var x2 = model.add_var("x2", 0.0, lp::kInf);
  const lp::Var x3 = model.add_var("x3", 0.0, lp::kInf);
  const lp::Var x4 = model.add_var("x4", 0.0, lp::kInf);
  lp::LinExpr r1;
  r1.add_term(x1, 0.25);
  r1.add_term(x2, -60.0);
  r1.add_term(x3, -1.0 / 25.0);
  r1.add_term(x4, 9.0);
  model.add_constraint(r1 <= lp::LinExpr(0.0));
  lp::LinExpr r2;
  r2.add_term(x1, 0.5);
  r2.add_term(x2, -90.0);
  r2.add_term(x3, -1.0 / 50.0);
  r2.add_term(x4, 3.0);
  model.add_constraint(r2 <= lp::LinExpr(0.0));
  lp::LinExpr r3;
  r3.add_term(x3, 1.0);
  model.add_constraint(r3 <= lp::LinExpr(1.0));
  lp::LinExpr obj;
  obj.add_term(x1, -0.75);
  obj.add_term(x2, 150.0);
  obj.add_term(x3, -1.0 / 50.0);
  obj.add_term(x4, 6.0);
  model.set_objective(ObjSense::Minimize, obj);
  return model;
}

/// Marshall & Suurballe (1969) cycling shape: two homogeneous rows tight
/// at the origin. Boxed to [0, 1] so the instance stays bounded while
/// the origin keeps its full degenerate tie structure.
Model marshall_suurballe() {
  Model model;
  const lp::Var x1 = model.add_var("x1", 0.0, 1.0);
  const lp::Var x2 = model.add_var("x2", 0.0, 1.0);
  const lp::Var x3 = model.add_var("x3", 0.0, 1.0);
  const lp::Var x4 = model.add_var("x4", 0.0, 1.0);
  lp::LinExpr r1;
  r1.add_term(x1, 0.4);
  r1.add_term(x2, 0.2);
  r1.add_term(x3, -1.4);
  r1.add_term(x4, -0.2);
  model.add_constraint(r1 <= lp::LinExpr(0.0));
  lp::LinExpr r2;
  r2.add_term(x1, -7.8);
  r2.add_term(x2, -1.4);
  r2.add_term(x3, 7.8);
  r2.add_term(x4, 0.4);
  model.add_constraint(r2 <= lp::LinExpr(0.0));
  lp::LinExpr obj;
  obj.add_term(x1, -2.3);
  obj.add_term(x2, -2.15);
  obj.add_term(x3, 13.55);
  obj.add_term(x4, 0.4);
  model.set_objective(ObjSense::Minimize, obj);
  return model;
}

void collect_bounds(const Model& model, std::vector<double>& lb,
                    std::vector<double>& ub) {
  lb.resize(model.num_vars());
  ub.resize(model.num_vars());
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
  }
}

struct AntiCycleConfig {
  const char* name;
  bool perturb;
  long perturb_after;
  long stall_limit;
};

/// Drives the revised engine's cold solve directly (no fallback ladder:
/// an Error here fails the test instead of hiding behind the tableau)
/// and checks termination within the pivot budget plus agreement with
/// the reference objective.
void run_configs(const Model& model, double ref_objective,
                 SolveStatus ref_status) {
  const AntiCycleConfig configs[] = {
      {"perturb+tiny-stall", true, 5, 30},
      {"perturb+default-stall", true, 50, 2000},
      {"bland-only+tiny-stall", false, 0, 30},
      {"bland-only+default-stall", false, 0, 2000},
  };
  std::vector<double> lb, ub;
  collect_bounds(model, lb, ub);
  for (const AntiCycleConfig& config : configs) {
    SCOPED_TRACE(config.name);
    lp::SimplexOptions opt;
    opt.perturb = config.perturb;
    opt.perturb_after = config.perturb_after;
    opt.stall_limit = config.stall_limit;
    // The budget IS the assertion: a cycling solver returns
    // IterationLimit. Whichever anti-degeneracy device the config arms
    // must fire (at perturb_after or stall_limit degenerate pivots) and
    // then finish these 4-variable instances in a handful of pivots, so
    // the budget is the trigger threshold plus generous slack.
    opt.max_iterations = config.stall_limit + 1000;
    lp::WarmStartContext ctx(model);
    long iterations = 0;
    const SolveStatus st = ctx.engine.solve_cold(opt, lb, ub, &iterations);
    EXPECT_NE(st, SolveStatus::IterationLimit) << "cycled";
    ASSERT_EQ(st, ref_status);
    EXPECT_LT(iterations, config.stall_limit + 200) << "pivot budget blown";
    if (st == SolveStatus::Optimal) {
      EXPECT_NEAR(ctx.engine.model_objective(), ref_objective, 1e-9);
    }
  }
}

TEST(Cycling, BealeTerminatesAndCertifies) {
  const Model model = beale();
  std::vector<double> lb, ub;
  collect_bounds(model, lb, ub);

  // Reference: the dense tableau solver (own Bland safeguard), plus the
  // closed form z* = -1/20.
  const Solution ref = testref::solve_tableau(model, lb, ub);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);
  EXPECT_NEAR(ref.objective, -0.05, 1e-9);

  run_configs(model, ref.objective, ref.status);

  // Through the ladder with certification: the cold revised rung answers
  // and the certificate must hold.
  lp::SimplexOptions opt;
  opt.certify = true;
  lp::WarmStartContext warm(model);
  const Solution sol =
      lp::SimplexSolver(opt).solve_with_bounds(model, lb, ub, warm);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(warm.last_path, lp::WarmStartContext::Path::ColdRevised);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  EXPECT_TRUE(sol.certified);
}

TEST(Cycling, MarshallSuurballeTerminatesAndCertifies) {
  const Model model = marshall_suurballe();
  std::vector<double> lb, ub;
  collect_bounds(model, lb, ub);

  const Solution ref = testref::solve_tableau(model, lb, ub);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);

  run_configs(model, ref.objective, ref.status);

  lp::SimplexOptions opt;
  opt.certify = true;
  lp::WarmStartContext warm(model);
  const Solution sol =
      lp::SimplexSolver(opt).solve_with_bounds(model, lb, ub, warm);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(warm.last_path, lp::WarmStartContext::Path::ColdRevised);
  EXPECT_NEAR(sol.objective, ref.objective, 1e-9);
  EXPECT_TRUE(sol.certified);
}

/// The suite's premise: with both anti-degeneracy devices off, the
/// solver really does cycle on Marshall–Suurballe, so the configs above
/// pass because a device fired, not because the instance is benign.
/// (Beale's example is not in this guard: the revised engine's
/// largest-|w| ratio-test tie-break reaches its optimum in 2 pivots
/// without either device.)
TEST(Cycling, MarshallSuurballeCyclesWithoutAntiDegeneracy) {
  const Model model = marshall_suurballe();
  std::vector<double> lb, ub;
  collect_bounds(model, lb, ub);
  lp::SimplexOptions opt;
  opt.perturb = false;
  opt.max_iterations = 1000;
  opt.stall_limit = opt.max_iterations + 1;  // Bland never engages
  lp::WarmStartContext ctx(model);
  long iterations = 0;
  EXPECT_EQ(ctx.engine.solve_cold(opt, lb, ub, &iterations),
            SolveStatus::IterationLimit);
  EXPECT_EQ(iterations, opt.max_iterations);
}

}  // namespace
}  // namespace metaopt
