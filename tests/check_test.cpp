// Tests for the verification layer: model lint diagnostics and the
// independent LP/MIP solution certifier.
//
// The certifier tests follow a seeded-violation pattern: solve a small
// model to proven optimality, then perturb the solution along exactly
// one KKT axis and assert the certificate flags exactly that violation
// class — proving each check actually has teeth and none of them fire
// spuriously on the untouched axes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "check/certify.h"
#include "check/lint.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "mip/branch_and_bound.h"

namespace metaopt::check {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::set<ViolationClass> classes(const Certificate& cert) {
  std::set<ViolationClass> out;
  for (const Violation& v : cert.violations) out.insert(v.cls);
  return out;
}

// ---------------------------------------------------------------------------
// Lint
// ---------------------------------------------------------------------------

TEST(Lint, CleanModelHasNoDiagnostics) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 10.0);
  lp::Var y = m.add_var("y", 0.0, 10.0);
  m.add_constraint(x + y <= lp::LinExpr(5.0), "cap");
  m.set_objective(lp::ObjSense::Maximize, x + 2.0 * y);
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Lint, FlagsNaNCoefficientAndRhs) {
  lp::Model m;
  lp::Var x = m.add_var("x");
  m.add_constraint(kNaN * x <= lp::LinExpr(1.0), "nan_coef");
  m.add_constraint(x <= lp::LinExpr(kNaN), "nan_rhs");
  m.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has_errors());
  // At least one diagnostic per bad row; NaN also propagates into the
  // folded rhs constant of the nan_coef row, which is reported too.
  EXPECT_GE(report.count(LintCode::NonFiniteValue), 2);
}

TEST(Lint, FlagsNaNVariableBound) {
  lp::Model m;
  lp::Var x = m.add_var("x");
  m.set_bounds(x, kNaN, 1.0);  // NaN comparisons sail past lb > ub guards
  m.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
  m.add_constraint(x <= lp::LinExpr(1.0));
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::NonFiniteValue));
  EXPECT_TRUE(report.has_errors());
}

TEST(Lint, FlagsNonFiniteObjective) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 1.0);
  m.add_constraint(x <= lp::LinExpr(1.0));
  m.set_objective(lp::ObjSense::Minimize, kNaN * x);
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::NonFiniteValue));
}

TEST(Lint, FlagsBinaryBoundsOutsideUnitBox) {
  lp::Model m;
  lp::Var b = m.add_binary("b");
  m.set_bounds(b, 0.0, 2.0);
  m.add_constraint(b <= lp::LinExpr(2.0));
  m.set_objective(lp::ObjSense::Maximize, lp::LinExpr(b));
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::BinaryBounds));
  EXPECT_TRUE(report.has_errors());
}

TEST(Lint, EmptyRowSeverityTracksViolation) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 1.0);
  m.add_constraint(x <= lp::LinExpr(1.0));
  m.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
  // 0 <= 1 is vacuous (warning); 0 <= -1 is unsatisfiable (error).
  m.add_constraint(lp::LinExpr(0.0) <= lp::LinExpr(1.0), "vacuous");
  const LintReport ok_report = lint_model(m);
  EXPECT_EQ(ok_report.count(LintCode::EmptyRow), 1);
  EXPECT_FALSE(ok_report.has_errors());

  m.add_constraint(lp::LinExpr(0.0) <= lp::LinExpr(-1.0), "impossible");
  const LintReport bad_report = lint_model(m);
  EXPECT_EQ(bad_report.count(LintCode::EmptyRow), 2);
  EXPECT_TRUE(bad_report.has_errors());
}

TEST(Lint, FlagsDuplicateRows) {
  lp::Model m;
  lp::Var x = m.add_var("x");
  lp::Var y = m.add_var("y");
  m.add_constraint(x + 2.0 * y <= lp::LinExpr(3.0), "first");
  m.add_constraint(x + 2.0 * y <= lp::LinExpr(3.0), "second");
  m.add_constraint(x + 2.0 * y <= lp::LinExpr(4.0), "different_rhs");
  m.set_objective(lp::ObjSense::Maximize, x + y);
  const LintReport report = lint_model(m);
  EXPECT_EQ(report.count(LintCode::DuplicateRow), 1);
}

TEST(Lint, FlagsFreeAndUnsatisfiableInfiniteRows) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 1.0);
  m.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
  m.add_constraint(x <= lp::LinExpr(lp::kInf), "never_binds");
  const LintReport free_report = lint_model(m);
  EXPECT_TRUE(free_report.has(LintCode::FreeRow));
  EXPECT_FALSE(free_report.has_errors());

  m.add_constraint(x >= lp::LinExpr(lp::kInf), "unsatisfiable");
  const LintReport bad_report = lint_model(m);
  EXPECT_TRUE(bad_report.has(LintCode::NonFiniteValue));
  EXPECT_TRUE(bad_report.has_errors());
}

TEST(Lint, FlagsStructurallyUnboundedColumn) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 1.0);
  lp::Var runaway = m.add_var("runaway");  // [0, +Inf), in no row
  m.add_constraint(x <= lp::LinExpr(1.0));
  m.set_objective(lp::ObjSense::Maximize, x + runaway);
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::StructurallyUnboundedColumn));
  EXPECT_TRUE(report.has_errors());

  // The same column under Minimize just sits at its lower bound: legal.
  m.set_objective(lp::ObjSense::Minimize, x + runaway);
  EXPECT_FALSE(
      lint_model(m).has(LintCode::StructurallyUnboundedColumn));
}

TEST(Lint, FlagsUnusedVariable) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 1.0);
  m.add_var("orphan", 0.0, 1.0);
  m.add_constraint(x <= lp::LinExpr(1.0));
  m.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::UnusedVariable));
  EXPECT_FALSE(report.has_errors());
}

TEST(Lint, FlagsSuspiciousBigM) {
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 1.0);
  lp::Var b = m.add_binary("b");
  m.add_constraint(x - 1e9 * b <= lp::LinExpr(0.0), "indicator");
  m.set_objective(lp::ObjSense::Maximize, lp::LinExpr(x));
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::SuspiciousBigM));
  EXPECT_FALSE(report.has_errors());  // warning, not error

  // Below tol::kBigMWarn the same row is an ordinary big-M.
  lp::Model tame;
  lp::Var tx = tame.add_var("x", 0.0, 1.0);
  lp::Var tb = tame.add_binary("b");
  tame.add_constraint(tx - 1e7 * tb <= lp::LinExpr(0.0), "indicator");
  tame.set_objective(lp::ObjSense::Maximize, lp::LinExpr(tx));
  EXPECT_FALSE(lint_model(tame).has(LintCode::SuspiciousBigM));
}

TEST(Lint, FlagsComplementaritySelfPair) {
  lp::Model m;
  lp::Var a = m.add_var("a");
  m.add_constraint(a <= lp::LinExpr(1.0));
  m.set_objective(lp::ObjSense::Maximize, lp::LinExpr(a));
  m.add_complementarity(a, a, "self");
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::ComplementaritySelfPair));
  EXPECT_TRUE(report.has_errors());
}

TEST(Lint, FlagsComplementarityOverNegativeVariable) {
  lp::Model m;
  lp::Var a = m.add_var("a", -1.0, 1.0);
  lp::Var b = m.add_var("b");
  m.add_constraint(a + b <= lp::LinExpr(1.0));
  m.set_objective(lp::ObjSense::Maximize, a + b);
  m.add_complementarity(a, b, "negative_side");
  const LintReport report = lint_model(m);
  EXPECT_TRUE(report.has(LintCode::ComplementarityNegative));
  EXPECT_TRUE(report.has_errors());
}

// ---------------------------------------------------------------------------
// LP certification
// ---------------------------------------------------------------------------

/// min x  s.t.  x >= 1,  z <= 1,  x in [0,10], z in [0,10].
/// Optimal: x = 1 (row binding, dual 1), z = 0 (row slack, dual 0).
struct SeededLp {
  lp::Model model;
  lp::Var x, z;
  lp::ConId row_x = -1, row_z = -1;
  lp::Solution sol;

  SeededLp() {
    x = model.add_var("x", 0.0, 10.0);
    z = model.add_var("z", 0.0, 10.0);
    row_x = model.add_constraint(x >= lp::LinExpr(1.0), "x_floor");
    row_z = model.add_constraint(z <= lp::LinExpr(1.0), "z_cap");
    model.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
    lp::SimplexOptions opts;
    opts.certify = false;  // tests drive the certifier directly
    sol = lp::SimplexSolver(opts).solve(model);
  }
};

TEST(CertifyLp, PassesOnKnownOptimal) {
  SeededLp s;
  ASSERT_EQ(s.sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(s.sol.values[s.x.id], 1.0, 1e-9);
  const Certificate cert = certify_lp(s.model, s.sol);
  EXPECT_TRUE(cert.ok) << cert.to_string();
  EXPECT_TRUE(cert.checked_duals);
  EXPECT_TRUE(cert.violations.empty());
}

TEST(CertifyLp, SolverHookSetsCertified) {
  SeededLp s;
  lp::SimplexOptions opts;
  opts.certify = true;
  const lp::Solution sol = lp::SimplexSolver(opts).solve(s.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(sol.certified);
  // Without the hook, certified stays false even for a perfect solve.
  EXPECT_FALSE(s.sol.certified);
}

TEST(CertifyLp, FlagsPrimalInfeasibilityExactly) {
  SeededLp s;
  lp::Solution bad = s.sol;
  // z has zero objective coefficient, an interior value, and a zero dual
  // on its row — pushing it past the row breaks P and nothing else.
  bad.values[s.z.id] = 2.0;
  const Certificate cert = certify_lp(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::PrimalFeasibility})
      << cert.to_string();
}

TEST(CertifyLp, FlagsDualInfeasibilityExactly) {
  SeededLp s;
  lp::Solution bad = s.sol;
  ASSERT_EQ(bad.duals.size(), 2u);
  // A negative multiplier on the binding row breaks the sign condition
  // and stationarity; the row still has zero slack, so C is untouched.
  bad.duals[s.row_x] = -0.5;
  const Certificate cert = certify_lp(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::DualFeasibility})
      << cert.to_string();
}

TEST(CertifyLp, FlagsComplementarySlacknessExactly) {
  SeededLp s;
  lp::Solution bad = s.sol;
  // Move x off the binding row while keeping the reported objective in
  // sync: P holds, stationarity is x-independent, O recomputes clean —
  // only the (multiplier, slack) pair is now inconsistent.
  bad.values[s.x.id] = 2.0;
  bad.objective = 2.0;
  const Certificate cert = certify_lp(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::ComplementarySlackness})
      << cert.to_string();
}

TEST(CertifyLp, FlagsObjectiveMismatchExactly) {
  SeededLp s;
  lp::Solution bad = s.sol;
  bad.objective += 0.5;
  const Certificate cert = certify_lp(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::ObjectiveMismatch})
      << cert.to_string();
}

TEST(CertifyLp, StructureViolationOnWrongSizes) {
  SeededLp s;
  lp::Solution bad = s.sol;
  bad.values.pop_back();
  const Certificate cert = certify_lp(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(cert.has(ViolationClass::Structure));
}

TEST(CertifyLp, StructureViolationOnNonSolutionStatus) {
  SeededLp s;
  lp::Solution infeasible;
  infeasible.status = lp::SolveStatus::Infeasible;
  const Certificate cert = certify_lp(s.model, infeasible);
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(cert.has(ViolationClass::Structure));
}

TEST(CertifyLp, RespectsBoundOverrides) {
  // min x with no rows; the node box [2, 10] moves the optimum to 2.
  lp::Model m;
  lp::Var x = m.add_var("x", 0.0, 10.0);
  m.set_objective(lp::ObjSense::Minimize, lp::LinExpr(x));
  const std::vector<double> lb{2.0}, ub{10.0};

  lp::SimplexOptions opts;
  opts.certify = true;
  lp::WarmStartContext ctx(m);
  const lp::Solution sol =
      lp::SimplexSolver(opts).solve_with_bounds(m, lb, ub, ctx);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.values[x.id], 2.0, 1e-9);
  // The hook certified against the override box, not the model box.
  EXPECT_TRUE(sol.certified);
  EXPECT_TRUE(certify_lp(m, sol, {}, &lb, &ub).ok);
  // Against the model box x = 2 is interior with gradient 1: stationarity
  // fails, proving the overrides were load-bearing.
  EXPECT_FALSE(certify_lp(m, sol).ok);
}

// ---------------------------------------------------------------------------
// MIP certification
// ---------------------------------------------------------------------------

/// max x + 2b  s.t.  x + b <= 1.5,  b binary, x in [0,1].
/// Optimal: b = 1, x = 0.5, objective 2.5.
struct SeededMip {
  lp::Model model;
  lp::Var x, b;
  lp::Solution sol;

  SeededMip() {
    x = model.add_var("x", 0.0, 1.0);
    b = model.add_binary("b");
    model.add_constraint(x + b <= lp::LinExpr(1.5), "cap");
    model.set_objective(lp::ObjSense::Maximize, x + 2.0 * b);
    mip::MipOptions opts;
    opts.certify = false;
    sol = mip::BranchAndBound(opts).solve(model);
  }
};

TEST(CertifyMip, PassesOnBranchAndBoundOptimum) {
  SeededMip s;
  ASSERT_EQ(s.sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(s.sol.objective, 2.5, 1e-6);
  const Certificate cert = certify_mip(s.model, s.sol);
  EXPECT_TRUE(cert.ok) << cert.to_string();
}

TEST(CertifyMip, SolverHookSetsCertified) {
  SeededMip s;
  mip::MipOptions opts;
  opts.certify = true;
  const lp::Solution sol = mip::BranchAndBound(opts).solve(s.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_FALSE(s.sol.certified);
}

TEST(CertifyMip, FlagsIntegralityExactly) {
  SeededMip s;
  lp::Solution bad = s.sol;
  bad.values[s.b.id] = 0.5;
  // Keep every other pillar consistent with the fractional point.
  bad.objective = s.model.objective_value(bad.values);
  bad.best_bound = bad.objective;
  const Certificate cert = certify_mip(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::Integrality})
      << cert.to_string();
}

TEST(CertifyMip, FlagsComplementarityProduct) {
  lp::Model m;
  lp::Var u = m.add_var("u", 0.0, 2.0);
  lp::Var v = m.add_var("v", 0.0, 2.0);
  m.add_constraint(u + v <= lp::LinExpr(2.0), "cap");
  m.set_objective(lp::ObjSense::Maximize, u + v);
  m.add_complementarity(u, v, "uv");

  lp::Solution sol;
  sol.status = lp::SolveStatus::Optimal;
  sol.values = {1.0, 1.0};  // feasible for rows/bounds, breaks u*v == 0
  sol.objective = 2.0;
  sol.best_bound = 2.0;
  const Certificate cert = certify_mip(m, sol);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::Complementarity})
      << cert.to_string();
}

TEST(CertifyMip, FlagsBoundInconsistency) {
  SeededMip s;
  lp::Solution bad = s.sol;
  // A Feasible status whose proven bound is *below* the incumbent under
  // Maximize claims the incumbent is super-optimal: contradiction.
  bad.status = lp::SolveStatus::Feasible;
  bad.best_bound = bad.objective - 1.0;
  const Certificate cert = certify_mip(s.model, bad);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(classes(cert),
            std::set<ViolationClass>{ViolationClass::BoundConsistency})
      << cert.to_string();
}

TEST(CertifyMip, AcceptsFeasibleWithHonestBound) {
  SeededMip s;
  lp::Solution feasible = s.sol;
  feasible.status = lp::SolveStatus::Feasible;
  feasible.best_bound = feasible.objective + 0.25;  // honest open bound
  const Certificate cert = certify_mip(s.model, feasible);
  EXPECT_TRUE(cert.ok) << cert.to_string();
}

// ---------------------------------------------------------------------------
// Certification through the branch-and-bound complementarity path
// ---------------------------------------------------------------------------

TEST(CertifyMip, CertifiesComplementaritySolve) {
  // max u + v with u ⟂ v: the optimum parks one side at zero.
  lp::Model m;
  lp::Var u = m.add_var("u", 0.0, 3.0);
  lp::Var v = m.add_var("v", 0.0, 2.0);
  m.add_constraint(u + v <= lp::LinExpr(3.0), "cap");
  m.set_objective(lp::ObjSense::Maximize, u + v);
  m.add_complementarity(u, v, "uv");

  mip::MipOptions opts;
  opts.certify = true;
  const lp::Solution sol = mip::BranchAndBound(opts).solve(m);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
  EXPECT_TRUE(sol.certified);
}

}  // namespace
}  // namespace metaopt::check
