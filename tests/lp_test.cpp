// Unit tests for the LP modeling layer and the simplex solver, and a
// pin of the cold root solves of the find_te benchmark's two model
// shapes (pivot count and objective bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversarial.h"
#include "domains/te_instances.h"
#include "find_te_model.h"
#include "heur/instance.h"
#include "lp/model.h"
#include "lp/presolve.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace metaopt::lp {
namespace {

TEST(LinExpr, BuildsAndNormalizes) {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  LinExpr e = 2.0 * x + y - 3.0 + x;
  e.normalize();
  ASSERT_EQ(e.terms().size(), 2u);
  EXPECT_EQ(e.terms()[0].first, x.id);
  EXPECT_DOUBLE_EQ(e.terms()[0].second, 3.0);
  EXPECT_DOUBLE_EQ(e.terms()[1].second, 1.0);
  EXPECT_DOUBLE_EQ(e.constant(), -3.0);
}

TEST(LinExpr, DropsZeroTerms) {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  LinExpr e = x - y + y - LinExpr(x);
  e.normalize();
  EXPECT_TRUE(e.terms().empty());
}

TEST(Model, EvalAndViolation) {
  Model m;
  Var x = m.add_var("x", 0.0, 10.0);
  Var y = m.add_var("y", 0.0, 10.0);
  m.add_constraint(x + y <= LinExpr(5.0), "cap");
  std::vector<double> ok{2.0, 3.0};
  std::vector<double> bad{4.0, 3.0};
  EXPECT_NEAR(m.max_violation(ok), 0.0, 1e-12);
  EXPECT_NEAR(m.max_violation(bad), 2.0, 1e-12);
}

TEST(Model, ComplementarityViolation) {
  Model m;
  Var a = m.add_var("a");
  Var b = m.add_var("b");
  m.add_complementarity(a, b);
  std::vector<double> ok{0.0, 7.0};
  std::vector<double> bad{2.0, 3.0};
  EXPECT_NEAR(m.max_violation(ok), 0.0, 1e-12);
  EXPECT_NEAR(m.max_violation(bad), 6.0, 1e-12);
}

TEST(Model, ValidateRejectsNegativeComplementarity) {
  Model m;
  Var a = m.add_var("a", -1.0, 1.0);
  Var b = m.add_var("b");
  m.add_complementarity(a, b);
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Model, StatsCounts) {
  Model m;
  Var x = m.add_var("x");
  Var b = m.add_binary("b");
  Var s = m.add_var("s");
  m.add_constraint(x + b <= LinExpr(1.0));
  m.add_complementarity(x, s);
  const ModelStats st = m.stats();
  EXPECT_EQ(st.num_vars, 3);
  EXPECT_EQ(st.num_binaries, 1);
  EXPECT_EQ(st.num_constraints, 1);
  EXPECT_EQ(st.num_complementarities, 1);
  EXPECT_EQ(st.num_nonzeros, 2);
}

TEST(Simplex, SolvesTwoVarMax) {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  m.add_constraint(x + y <= LinExpr(4.0));
  m.add_constraint(x + 3.0 * y <= LinExpr(6.0));
  m.set_objective(ObjSense::Maximize, 3.0 * x + 2.0 * y);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-8);
  EXPECT_NEAR(sol.values[x.id], 4.0, 1e-8);
  EXPECT_NEAR(sol.values[y.id], 0.0, 1e-8);
}

TEST(Simplex, SolvesEquality) {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  m.add_constraint(x + y == LinExpr(2.0));
  m.set_objective(ObjSense::Minimize, x + y);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  Var x = m.add_var("x");
  m.add_constraint(LinExpr(x) >= LinExpr(3.0));
  m.add_constraint(LinExpr(x) <= LinExpr(1.0));
  m.set_objective(ObjSense::Minimize, LinExpr(x));
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  Var x = m.add_var("x");
  m.set_objective(ObjSense::Maximize, LinExpr(x));
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, HonorsUpperBounds) {
  Model m;
  Var x = m.add_var("x", 0.0, 3.5);
  m.set_objective(ObjSense::Maximize, LinExpr(x));
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.5, 1e-9);
}

TEST(Simplex, HandlesNegativeLowerBound) {
  Model m;
  Var x = m.add_var("x", -5.0, kInf);
  m.set_objective(ObjSense::Minimize, LinExpr(x));
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -5.0, 1e-9);
}

TEST(Simplex, HandlesFreeVariableViaEquality) {
  Model m;
  Var y = m.add_var("y", -kInf, kInf);
  m.add_constraint(LinExpr(y) == LinExpr(-7.0));
  m.set_objective(ObjSense::Minimize, LinExpr(0.0));
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.values[y.id], -7.0, 1e-9);
}

TEST(Simplex, HandlesUpperOnlyBound) {
  Model m;
  Var x = m.add_var("x", -kInf, 2.0);
  m.set_objective(ObjSense::Maximize, LinExpr(x));
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, SubstitutesFixedVariables) {
  Model m;
  Var x = m.add_var("x", 2.0, 2.0);
  Var y = m.add_var("y");
  m.add_constraint(x + y <= LinExpr(5.0));
  m.set_objective(ObjSense::Maximize, x + y);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
  EXPECT_NEAR(sol.values[x.id], 2.0, 1e-12);
  EXPECT_NEAR(sol.values[y.id], 3.0, 1e-9);
}

TEST(Simplex, GreaterEqualRows) {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  m.add_constraint(x + y >= LinExpr(3.0));
  m.add_constraint(LinExpr(x) >= LinExpr(1.0));
  m.set_objective(ObjSense::Minimize, 2.0 * x + y);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // x=1 (forced), y=2: obj 4.
  EXPECT_NEAR(sol.objective, 4.0, 1e-8);
}

TEST(Simplex, NegativeRhsEquality) {
  Model m;
  Var x = m.add_var("x", -kInf, kInf);
  Var y = m.add_var("y");
  m.add_constraint(x - y == LinExpr(-3.0));
  m.add_constraint(LinExpr(y) <= LinExpr(10.0));
  m.set_objective(ObjSense::Maximize, x + y);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 17.0, 1e-8);  // y=10, x=7
}

TEST(Simplex, DualsOfSmallMin) {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  ConId c1 = m.add_constraint(x + y <= LinExpr(4.0));
  ConId c2 = m.add_constraint(x + 3.0 * y <= LinExpr(6.0));
  m.set_objective(ObjSense::Minimize, -3.0 * x - 2.0 * y);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -12.0, 1e-8);
  ASSERT_EQ(sol.duals.size(), 2u);
  EXPECT_NEAR(sol.duals[c1], 3.0, 1e-7);
  EXPECT_NEAR(sol.duals[c2], 0.0, 1e-7);
}

TEST(Simplex, ObjectiveConstantCarries) {
  Model m;
  Var x = m.add_var("x", 0.0, 1.0);
  m.set_objective(ObjSense::Maximize, x + 10.0);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 11.0, 1e-9);
}

// ---- solve metrics: one count per public solve, whichever rung ----

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  if (m == nullptr) return 0.0;
  return m->kind == obs::MetricKind::Histogram
             ? static_cast<double>(m->hist.count)
             : m->value;
}

Model two_var_max() {
  Model m;
  Var x = m.add_var("x");
  Var y = m.add_var("y");
  m.add_constraint(x + y <= LinExpr(4.0));
  m.add_constraint(x + 3.0 * y <= LinExpr(6.0));
  m.set_objective(ObjSense::Maximize, 3.0 * x + 2.0 * y);
  return m;
}

/// Runs `solve` with recording on and returns the metric deltas.
template <typename F>
obs::MetricsSnapshot recorded(F solve) {
  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  solve();
  const obs::MetricsSnapshot after = obs::snapshot();
  obs::set_enabled(false);
  return obs::diff(before, after);
}

TEST(SimplexMetrics, EveryPublicSolveCountsOnce) {
  const Model m = two_var_max();
  const std::vector<double> lb(2, 0.0);
  const std::vector<double> ub(2, kInf);
  const SimplexSolver solver;
  WarmStartContext warm(m);
  std::shared_ptr<const Basis> basis;
  const obs::MetricsSnapshot d = recorded([&] {
    EXPECT_EQ(solver.solve(m).status, SolveStatus::Optimal);
    EXPECT_EQ(solver.solve_with_bounds(m, lb, ub, warm).status,
              SolveStatus::Optimal);
    EXPECT_EQ(warm.last_path, WarmStartContext::Path::ColdRevised);
    basis = warm.take_result();
    ASSERT_NE(basis, nullptr);
    warm.hint = basis.get();
    EXPECT_EQ(solver.solve_with_bounds(m, lb, ub, warm).status,
              SolveStatus::Optimal);
    EXPECT_EQ(warm.last_path, WarmStartContext::Path::WarmDual);
  });
  // solve() is a cold solve through its own context.
  EXPECT_EQ(metric(d, "simplex.solves"), 3.0);
  EXPECT_EQ(metric(d, "simplex.solve_ns"), 3.0);
  EXPECT_EQ(metric(d, "simplex.cold_revised_solves"), 2.0);
  EXPECT_EQ(metric(d, "simplex.warm_solves"), 1.0);
  EXPECT_EQ(metric(d, "simplex.warm_fallbacks"), 0.0);
}

TEST(SimplexMetrics, ZeroIterationBudgetReturnsIterationLimit) {
  // A zero iteration budget stops the cold rung before its first pivot;
  // the ladder has no further rung, so the status comes back as-is,
  // without values or a basis, counted once.
  const Model m = two_var_max();
  const std::vector<double> lb(2, 0.0);
  const std::vector<double> ub(2, kInf);
  SimplexOptions options;
  options.max_iterations = 0;
  const SimplexSolver solver(options);
  WarmStartContext warm(m);
  const obs::MetricsSnapshot d = recorded([&] {
    const Solution sol = solver.solve_with_bounds(m, lb, ub, warm);
    EXPECT_EQ(sol.status, SolveStatus::IterationLimit);
    EXPECT_TRUE(sol.values.empty());
  });
  EXPECT_EQ(warm.last_path, WarmStartContext::Path::ColdRevised);
  EXPECT_EQ(warm.take_result(), nullptr);
  EXPECT_EQ(metric(d, "simplex.solves"), 1.0);
  EXPECT_EQ(metric(d, "simplex.solve_ns"), 1.0);
  EXPECT_EQ(metric(d, "simplex.cold_revised_solves"), 1.0);
}

// ---- primal start basis: used when usable, else the slack crash ----

Basis start_basis(std::initializer_list<int> basic) {
  // two_var_max's columns: x, y, two logicals, two artificials.
  Basis b;
  b.status.assign(6, VarStatus::AtLower);
  for (const int j : basic) b.status[j] = VarStatus::Basic;
  return b;
}

TEST(PrimalStart, UnusableStartsFallBackToTheCrash) {
  const Model m = two_var_max();
  const std::vector<double> lb(2, 0.0);
  const std::vector<double> ub(2, kInf);
  const SimplexSolver solver;
  WarmStartContext plain(m);
  const Solution crash = solver.solve_with_bounds(m, lb, ub, plain);
  ASSERT_EQ(crash.status, SolveStatus::Optimal);
  ASSERT_GT(crash.iterations, 0);

  const std::vector<std::pair<std::string, Basis>> starts = {
      // Row 0's logical and artificial are both e_0.
      {"singular", start_basis({2, 4})},
      {"one basic column", start_basis({0})},
      // x basic on row 1 puts x = 6 and row 0's slack at 4 - 6 < 0.
      {"primal infeasible", start_basis({0, 2})},
  };
  const obs::MetricsSnapshot d = recorded([&] {
    for (const auto& [what, start] : starts) {
      WarmStartContext warm(m);
      warm.start = &start;
      const Solution sol = solver.solve_with_bounds(m, lb, ub, warm);
      EXPECT_EQ(sol.status, crash.status) << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.objective),
                std::bit_cast<std::uint64_t>(crash.objective))
          << what;
      EXPECT_EQ(sol.iterations, crash.iterations) << what;
    }
  });
  EXPECT_EQ(metric(d, "simplex.start_rejects"), 3.0);
  EXPECT_EQ(metric(d, "simplex.start_solves"), 0.0);
}

TEST(PrimalStart, OptimalStartNeedsNoPivot) {
  // max 3x + 2y over x + y <= 4, x + 3y <= 6: x = 4 with row 1's slack
  // basic (at 2) is the optimum.
  const Model m = two_var_max();
  const std::vector<double> lb(2, 0.0);
  const std::vector<double> ub(2, kInf);
  const Basis start = start_basis({0, 3});
  WarmStartContext warm(m);
  warm.start = &start;
  Solution sol;
  const obs::MetricsSnapshot d = recorded(
      [&] { sol = SimplexSolver().solve_with_bounds(m, lb, ub, warm); });
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(sol.iterations, 0);
  EXPECT_NEAR(sol.objective, 12.0, 1e-9);
  EXPECT_EQ(metric(d, "simplex.start_solves"), 1.0);
  EXPECT_EQ(metric(d, "simplex.start_rejects"), 0.0);
  EXPECT_EQ(metric(d, "simplex.revised_pivots"), 0.0);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic cycling-prone setup (Beale); must terminate via stall guard.
  Model m;
  Var x1 = m.add_var("x1");
  Var x2 = m.add_var("x2");
  Var x3 = m.add_var("x3");
  Var x4 = m.add_var("x4");
  m.add_constraint(0.25 * x1 - 60.0 * x2 - 0.04 * x3 + 9.0 * x4 <=
                   LinExpr(0.0));
  m.add_constraint(0.5 * x1 - 90.0 * x2 - 0.02 * x3 + 3.0 * x4 <=
                   LinExpr(0.0));
  m.add_constraint(LinExpr(x3) <= LinExpr(1.0));
  m.set_objective(ObjSense::Minimize,
                  -0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4);
  const Solution sol = SimplexSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-7);
}

// ---------------------------------------------------------------------
// Property tests: random LPs checked against a brute-force vertex
// enumeration reference solver.
// ---------------------------------------------------------------------

/// Reference solver: enumerates all basic points of
///   max c'x  s.t.  Ax <= b, 0 <= x <= u
/// by choosing n active constraints out of {rows, x_j = 0, x_j = u_j}
/// and solving the linear system with Gaussian elimination.
double brute_force_max(const std::vector<std::vector<double>>& A,
                       const std::vector<double>& b,
                       const std::vector<double>& c,
                       const std::vector<double>& u, bool* feasible) {
  const int n = static_cast<int>(c.size());
  const int m = static_cast<int>(b.size());
  // Active set candidates: m rows, n lower bounds, n upper bounds.
  const int total = m + 2 * n;
  std::vector<int> pick(n, 0);
  double best = -1e300;
  *feasible = false;

  // Iterate all combinations of size n from `total` candidates.
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  auto advance = [&]() {
    int i = n - 1;
    while (i >= 0 && idx[i] == total - n + i) --i;
    if (i < 0) return false;
    ++idx[i];
    for (int j = i + 1; j < n; ++j) idx[j] = idx[j - 1] + 1;
    return true;
  };
  do {
    // Build the n x n system.
    std::vector<std::vector<double>> M(n, std::vector<double>(n + 1, 0.0));
    for (int r = 0; r < n; ++r) {
      const int k = idx[r];
      if (k < m) {
        for (int j = 0; j < n; ++j) M[r][j] = A[k][j];
        M[r][n] = b[k];
      } else if (k < m + n) {
        M[r][k - m] = 1.0;
        M[r][n] = 0.0;
      } else {
        M[r][k - m - n] = 1.0;
        M[r][n] = u[k - m - n];
      }
    }
    // Gaussian elimination with partial pivoting.
    bool singular = false;
    for (int col = 0; col < n && !singular; ++col) {
      int piv = -1;
      double mag = 1e-9;
      for (int r = col; r < n; ++r) {
        if (std::abs(M[r][col]) > mag) {
          mag = std::abs(M[r][col]);
          piv = r;
        }
      }
      if (piv < 0) {
        singular = true;
        break;
      }
      std::swap(M[piv], M[col]);
      for (int r = 0; r < n; ++r) {
        if (r == col) continue;
        const double f = M[r][col] / M[col][col];
        for (int j = col; j <= n; ++j) M[r][j] -= f * M[col][j];
      }
    }
    if (singular) continue;
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = M[j][n] / M[j][j];
    // Feasibility.
    bool ok = true;
    for (int j = 0; j < n && ok; ++j) {
      ok = x[j] >= -1e-7 && x[j] <= u[j] + 1e-7;
    }
    for (int r = 0; r < m && ok; ++r) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) lhs += A[r][j] * x[j];
      ok = lhs <= b[r] + 1e-6;
    }
    if (!ok) continue;
    *feasible = true;
    double obj = 0.0;
    for (int j = 0; j < n; ++j) obj += c[j] * x[j];
    best = std::max(best, obj);
  } while (advance());
  (void)pick;
  return best;
}

class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, MatchesBruteForce) {
  util::Rng rng(GetParam());
  const int n = rng.uniform_int(2, 4);
  const int m_rows = rng.uniform_int(1, 4);
  std::vector<std::vector<double>> A(m_rows, std::vector<double>(n));
  std::vector<double> b(m_rows), c(n), u(n);
  for (int r = 0; r < m_rows; ++r) {
    for (int j = 0; j < n; ++j) A[r][j] = rng.uniform(-1.0, 2.0);
    b[r] = rng.uniform(0.5, 5.0);  // b > 0 so x=0 is feasible
  }
  for (int j = 0; j < n; ++j) {
    c[j] = rng.uniform(-1.0, 2.0);
    u[j] = rng.uniform(0.5, 4.0);
  }
  bool feasible = false;
  const double ref = brute_force_max(A, b, c, u, &feasible);
  ASSERT_TRUE(feasible);  // x = 0 is always feasible here

  Model model;
  std::vector<Var> x;
  for (int j = 0; j < n; ++j) {
    x.push_back(model.add_var("x" + std::to_string(j), 0.0, u[j]));
  }
  for (int r = 0; r < m_rows; ++r) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e.add_term(x[j], A[r][j]);
    model.add_constraint(e <= LinExpr(b[r]));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(x[j], c[j]);
  model.set_objective(ObjSense::Maximize, obj);

  const Solution sol = SimplexSolver().solve(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
  EXPECT_NEAR(sol.objective, ref, 1e-6) << "seed " << GetParam();
  EXPECT_LE(model.max_violation(sol.values), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest, ::testing::Range(1, 61));

class SimplexDualityTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDualityTest, StrongDualityHolds) {
  // min c'x s.t. Ax <= b, x >= 0 (no finite ub) with c >= 0 so the LP is
  // bounded; check obj == -sum(duals_i * (-b_i)) ... i.e. obj == -lam' b
  // under our convention L = c'x + lam'(Ax - b).
  util::Rng rng(1000 + GetParam());
  const int n = rng.uniform_int(2, 5);
  const int m_rows = rng.uniform_int(2, 5);
  Model model;
  std::vector<Var> x;
  for (int j = 0; j < n; ++j) x.push_back(model.add_var("x" + std::to_string(j)));
  std::vector<double> b(m_rows);
  for (int r = 0; r < m_rows; ++r) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e.add_term(x[j], rng.uniform(-1.0, 2.0));
    b[r] = rng.uniform(0.5, 5.0);
    model.add_constraint(e <= LinExpr(b[r]));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(x[j], rng.uniform(0.1, 2.0));
  // Force some negative cost direction blocked by constraints:
  model.set_objective(ObjSense::Minimize, obj - 1.5 * LinExpr(x[0]));
  const Solution sol = SimplexSolver().solve(model);
  if (sol.status == SolveStatus::Unbounded) return;  // legal; skip
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  double dual_obj = 0.0;
  for (int r = 0; r < m_rows; ++r) {
    EXPECT_GE(sol.duals[r], -1e-7);
    dual_obj -= sol.duals[r] * b[r];
  }
  EXPECT_NEAR(sol.objective, dual_obj, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexDualityTest, ::testing::Range(1, 41));

// ---- the find_te root relaxations, pinned bit for bit ----

/// Cold solve of the root node LP as branch-and-bound runs it: the
/// model's bounds after presolve, no hint.
Solution solve_root(const Model& model) {
  const PresolveResult pre = presolve(model);
  EXPECT_FALSE(pre.infeasible);
  SimplexOptions options;
  options.certify = true;
  const SimplexSolver solver(options);
  WarmStartContext warm(model);
  return solver.solve_with_bounds(model, pre.lb, pre.ub, warm);
}

TEST(FindTeRoots, ColdSolvesArePinnedBitForBit) {
  // The Abilene DP operation (all pairs) and the first B4 POP operation
  // (12-pair support, seed 1) of perfbench's find_te. The pinned pivot
  // counts and objective bits were recorded before the hypersparse
  // kernels existed; a kernel change that is not bit-identical moves
  // them here, at the LP layer, before any tree does.
  heur::InstanceConfig dp;
  dp.heuristic = "dp";
  dp.topology = "abilene";
  dp.threshold = 50.0;
  heur::InstanceConfig pop;
  pop.heuristic = "pop";
  pop.topology = "b4";
  pop.support = 12;
  pop.partitions = 2;
  for (int r = 0; r < 3; ++r) {
    pop.pop_seeds.push_back(util::derive_seed(1, 100 + r));
  }

  struct Pin {
    const heur::InstanceConfig* config;
    int rows;
    long iterations;
    std::uint64_t objective_bits;
  };
  const Pin pins[] = {
      {&dp, 1596, 3975, 0x40db580000000000},   // 28,000
      {&pop, 2284, 2295, 0x40af400000000000},  // 4,000
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.config->heuristic + " on " + pin.config->topology);
    const std::unique_ptr<heur::HeuristicInstance> inst =
        heur::make_instance(*pin.config);
    const Model model =
        testmodels::find_te_model(dynamic_cast<const domains::TeInstanceBase&>(*inst));
    // Above the row limit, so the hypersparse kernels are in play.
    ASSERT_EQ(model.num_constraints(), pin.rows);
    ASSERT_GE(pin.rows, kHyperMinRows);
    const Solution root = solve_root(model);
    ASSERT_EQ(root.status, SolveStatus::Optimal);
    EXPECT_TRUE(root.certified);
    EXPECT_EQ(root.iterations, pin.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(root.objective), pin.objective_bits)
        << root.objective;
  }
}

// ---- the primal's entering choice over cached scores ----

/// A literal copy of the primal's dense pricing scan (the path forms
/// below kHyperMinRows still take), with column j a candidate when
/// dir[j] != 0: Bland's first eligible column, else the best of the
/// first cyclic window that holds a candidate.
int literal_scan(const std::vector<int>& dir, const std::vector<double>& score,
                 int total, bool bland, int* cursor) {
  int q = -1;
  if (bland) {
    for (int j = 0; j < total; ++j) {
      if (dir[j] != 0) return j;
    }
    return -1;
  }
  const int window = std::max(kMinPriceWindow, total / 8);
  double best = 0.0;
  int idx = *cursor >= total ? 0 : *cursor;
  int in_window = 0;
  for (int scanned = 0; scanned < total; ++scanned) {
    if (dir[idx] != 0 && (q < 0 || score[idx] > best)) {
      best = score[idx];
      q = idx;
    }
    if (++idx == total) idx = 0;
    if (++in_window == window) {
      if (q >= 0) break;
      in_window = 0;
    }
  }
  if (q >= 0) *cursor = idx;
  return q;
}

TEST(PickEntering, ReproducesTheCyclicWindowScan) {
  // Random eligibility sets (empty to full) and scores with many ties,
  // column counts below one window, at whole windows and with a
  // truncated last window, cursors anywhere (past the end too) and
  // carried from pick to pick so windows wrap past the last column, and
  // Bland's rule. pick_entering sees the bits and scores only through
  // ready(): everything else reads as ineligible garbage, so a range it
  // fails to ready before reading shows up as a different pick.
  util::Rng rng(77);
  int wrapped = 0;
  int picks = 0;
  for (const int total : {1, 63, 64, 65, 130, 512, 520, 1000, 5724}) {
    const int words = (total + 63) / 64;
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE("total " + std::to_string(total) + " trial " +
                   std::to_string(trial));
      const double density = trial % 10 == 0 ? 0.0 : rng.uniform(0.0, 1.0);
      std::vector<int> dir(total, 0);
      std::vector<double> score(total, 0.0);
      for (int j = 0; j < total; ++j) {
        if (!rng.bernoulli(density)) continue;
        dir[j] = rng.bernoulli(0.5) ? 1 : -1;
        score[j] = static_cast<double>(rng.uniform_int(1, 4));
      }
      int literal_cursor = rng.uniform_int(0, total + 2);
      int cursor = literal_cursor;
      for (int call = 0; call < 12; ++call) {
        const bool bland = call % 5 == 4;
        std::vector<std::uint64_t> eligible(words, 0);
        std::vector<double> seen(total, -1.0);
        const auto ready = [&](int from, int to) {
          ASSERT_LE(0, from);
          ASSERT_LE(from, to);
          ASSERT_LE(to, total);
          for (int j = from; j < to; ++j) {
            seen[j] = score[j];
            if (dir[j] != 0) eligible[j >> 6] |= std::uint64_t{1} << (j & 63);
          }
        };
        const int start = cursor >= total ? 0 : cursor;
        const int want = literal_scan(dir, score, total, bland,
                                      &literal_cursor);
        const int got =
            pick_entering(eligible, seen, total, bland, &cursor, ready);
        ASSERT_EQ(got, want) << "call " << call << (bland ? " (Bland)" : "");
        ASSERT_EQ(cursor, literal_cursor) << "call " << call;
        ++picks;
        if (got >= 0 && !bland && got < start) ++wrapped;
        if (got >= 0) dir[got] = 0;  // the column enters the basis
      }
    }
  }
  EXPECT_GT(wrapped, 20);
  EXPECT_GT(picks, 5000);
}

// ---- the dual's maintained reduced costs ----

TEST(MaintainedReducedCosts, MatchFreshOnesOnFindTeNodes) {
  // Warm dual solves of branch-and-bound children of the find_te roots:
  // a random binary fixed or one side of a random complementarity pair
  // zeroed, warm from the root's optimal basis. At every refresh the
  // engine compares its maintained reduced costs with fresh ones
  // (simplex.reduced_cost_drift counts a miss by more than
  // tol::kCostTol * (1 + |d|)), and every Optimal answer, certified with
  // its duals and reduced costs, holds on fresh reduced costs.
  heur::InstanceConfig dp;
  dp.heuristic = "dp";
  dp.topology = "abilene";
  dp.threshold = 50.0;
  heur::InstanceConfig pop;
  pop.heuristic = "pop";
  pop.topology = "b4";
  pop.support = 12;
  pop.partitions = 2;
  pop.pop_seeds = {101, 102, 103};
  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  long warm_optimal = 0;
  for (const heur::InstanceConfig* config : {&dp, &pop}) {
    SCOPED_TRACE(config->heuristic);
    const std::unique_ptr<heur::HeuristicInstance> inst =
        heur::make_instance(*config);
    const Model model = testmodels::find_te_model(
        dynamic_cast<const domains::TeInstanceBase&>(*inst));
    const PresolveResult pre = presolve(model);
    ASSERT_FALSE(pre.infeasible);
    SimplexOptions options;
    options.certify = true;
    options.want_duals = true;
    const SimplexSolver solver(options);
    WarmStartContext warm(model);
    const Solution root = solver.solve_with_bounds(model, pre.lb, pre.ub, warm);
    ASSERT_EQ(root.status, SolveStatus::Optimal);
    const std::shared_ptr<const Basis> basis = warm.take_result();
    ASSERT_NE(basis, nullptr);

    std::vector<VarId> binaries;
    for (VarId v = 0; v < model.num_vars(); ++v) {
      if (model.var(v).kind == VarKind::Binary) binaries.push_back(v);
    }
    const auto& pairs = model.complementarities();
    util::Rng rng(config == &dp ? 21 : 22);
    for (int child = 0; child < 24; ++child) {
      std::vector<double> lb = pre.lb, ub = pre.ub;
      if (!binaries.empty() && child % 2 == 0) {
        const VarId v = binaries[rng.uniform_int(
            0, static_cast<int>(binaries.size()) - 1)];
        lb[v] = ub[v] = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 1.0;
      } else {
        const auto& pair =
            pairs[rng.uniform_int(0, static_cast<int>(pairs.size()) - 1)];
        ub[rng.uniform(0.0, 1.0) < 0.5 ? pair.a : pair.b] = 0.0;
      }
      warm.hint = basis.get();
      const Solution s = solver.solve_with_bounds(model, lb, ub, warm);
      (void)warm.take_result();
      if (s.status != SolveStatus::Optimal) continue;
      EXPECT_TRUE(s.certified) << "child " << child;
      if (warm.last_path == WarmStartContext::Path::WarmDual) ++warm_optimal;
    }
  }
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  EXPECT_GT(warm_optimal, 0);
  EXPECT_GT(metric(d, "simplex.dual_pivots"), 0.0);
  EXPECT_GT(metric(d, "simplex.reduced_cost_refreshes"), 0.0);
  EXPECT_EQ(metric(d, "simplex.reduced_cost_drift"), 0.0);
}

}  // namespace
}  // namespace metaopt::lp
