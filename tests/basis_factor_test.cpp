// Unit tests for BasisFactor: ftran/btran residuals against the
// explicit basis matrix, ||B ftran(b) - b|| and ||B' btran(c) - c||,
// on random bases, chains whose symbolic reach is transitive and a
// sparse KKT node basis, after factorize and after every product-form
// eta update; singular bases, the fill-in-triggered refactorize, the
// factorization timer, and the factored-set cache key staying in sync
// across warm solves (regression for the stale-key bug class).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kkt/kkt_rewriter.h"
#include "lp/basis.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "obs/obs.h"
#include "te/demand.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/path_set.h"
#include "util/rng.h"

namespace metaopt {
namespace {

using lp::BasisFactor;
using lp::BoundedForm;
using lp::Model;
using lp::ObjSense;

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// A well-conditioned random LP whose BoundedForm has enough structural
/// columns to assemble interesting bases.
Model make_model(util::Rng& rng, int n, int m) {
  Model model;
  std::vector<lp::Var> vars;
  for (int j = 0; j < n; ++j) {
    vars.push_back(model.add_var("x" + std::to_string(j), 0.0, 10.0));
  }
  for (int r = 0; r < m; ++r) {
    lp::LinExpr expr;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) expr.add_term(vars[j], rng.uniform(-4.0, 4.0));
    }
    expr.add_term(vars[r % n], 1.0);  // guarantee a nonzero
    model.add_constraint(expr <= lp::LinExpr(rng.uniform(1.0, 10.0)));
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(vars[j], rng.uniform(-2.0, 2.0));
  model.set_objective(ObjSense::Minimize, obj);
  return model;
}

/// A basis mixing structural and logical columns that factorizes (falls
/// back toward all-logical until factorization succeeds).
std::vector<int> pick_basis(const BoundedForm& form, util::Rng& rng) {
  const int m = form.num_rows;
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<int> basic;
    std::vector<bool> used(form.num_structs, false);
    for (int i = 0; i < m; ++i) {
      int col = -1;
      if (rng.bernoulli(0.5) && form.num_structs > 0) {
        const int j = rng.uniform_int(0, form.num_structs - 1);
        if (!used[j]) {
          used[j] = true;
          col = j;
        }
      }
      basic.push_back(col >= 0 ? col : form.logical_col(i));
    }
    BasisFactor probe;
    if (probe.factorize(form, basic)) return basic;
  }
  std::vector<int> logicals;
  for (int i = 0; i < m; ++i) logicals.push_back(form.logical_col(i));
  return logicals;
}

/// A basis matrix together with the form its columns come from.
struct BasisCase {
  std::string name;
  BoundedForm form;
  std::vector<int> basic;
};

/// A cyclic chain: structural column j < m-1 is e_j + a e_{j+1} (lower
/// bidiagonal) and the last column is e_0 + b e_{m-1}. The elimination
/// pivots rows 0..m-2 in order, each L column carrying the next row, so
/// the last column's only pivoted seed (row 0) reaches every earlier
/// step, all but one of them indirectly. Its final pivot is
/// b + (-a)^(m-1).
BoundedForm chain_form(int m, double a, double b) {
  BoundedForm form;
  form.num_structs = m;
  form.num_rows = m;
  form.col_start.push_back(0);
  for (int j = 0; j < m; ++j) {
    const bool last = j == m - 1;
    form.col_row.push_back(last ? 0 : j);
    form.col_val.push_back(1.0);
    form.col_row.push_back(last ? m - 1 : j + 1);
    form.col_val.push_back(last ? b : a);
    form.col_start.push_back(static_cast<int>(form.col_row.size()));
  }
  form.rhs.assign(m, 0.0);
  form.row_is_eq.assign(m, false);
  form.source_con.resize(m);
  for (int i = 0; i < m; ++i) form.source_con[i] = i;
  form.cost.assign(m, 0.0);
  return form;
}

std::vector<int> structural_basis(int m) {
  std::vector<int> basic(m);
  for (int j = 0; j < m; ++j) basic[j] = j;
  return basic;
}

/// The root LP relaxation of a small DP metaoptimization model (the
/// Fig. 6 construction: adversarial demands, KKT-rewritten OPT and DP
/// followers) on a 3x4 grid, and its optimal basis: the shape of a
/// branch-and-bound node basis, mostly singleton columns.
BasisCase kkt_root_case() {
  const net::Topology topo = net::topologies::grid(3, 4);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  lp::Model model;
  const double ub = topo.max_capacity();
  std::vector<lp::Var> dvars;
  std::vector<lp::LinExpr> dexprs;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    dvars.push_back(model.add_var("d[" + std::to_string(k) + "]", 0.0, ub));
    dexprs.emplace_back(dvars.back());
  }
  const te::FlowEncoding opt_enc =
      te::build_max_flow(model, topo, paths, dexprs, "opt.", {});
  const kkt::KktArtifacts opt_art = kkt::emit_kkt(model, opt_enc.inner, "opt.");
  te::DpConfig dp;
  dp.threshold = 50.0;
  dp.demand_ub = ub;
  const te::DpEncoding dp_enc =
      te::build_demand_pinning(model, topo, paths, dvars, dp, "dp.");
  const kkt::KktArtifacts dp_art = kkt::emit_kkt(model, dp_enc.inner, "dp.");
  model.set_objective(ObjSense::Maximize,
                      opt_art.objective_expr - dp_art.objective_expr);

  std::vector<double> lb(model.num_vars()), ub_v(model.num_vars());
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub_v[v] = model.var(v).ub;
  }
  lp::SimplexOptions opt;
  opt.want_duals = false;
  opt.certify = false;
  lp::WarmStartContext ctx(model);
  long iters = 0;
  EXPECT_EQ(ctx.engine.solve_cold(opt, lb, ub_v, &iters),
            lp::SolveStatus::Optimal);
  lp::Basis root;
  ctx.engine.export_basis(root);

  BasisCase c{"kkt-root", BoundedForm::build(model), {}};
  for (int j = 0; j < static_cast<int>(root.status.size()); ++j) {
    if (root.status[j] == lp::VarStatus::Basic) c.basic.push_back(j);
  }
  // Keep the case at the shape the reach path is meant to cover: most
  // basis columns hold one nonzero (logicals, and structurals such as
  // a single row's dual or slack variable).
  EXPECT_GE(c.form.num_rows, 1000);
  const auto singletons =
      std::count_if(c.basic.begin(), c.basic.end(), [&](int j) {
        return j >= c.form.num_structs ||
               c.form.col_start[j + 1] - c.form.col_start[j] == 1;
      });
  EXPECT_GT(2 * singletons, c.form.num_rows);
  return c;
}

/// Bases with known structure, added to the random ones: chains of
/// several lengths (transitive reach) and the KKT root basis (m >= 1000,
/// mostly singleton columns).
const std::vector<BasisCase>& structured_cases() {
  static const std::vector<BasisCase> cases = [] {
    std::vector<BasisCase> out;
    for (const int m : {2, 3, 17, 200}) {
      out.push_back({"chain-" + std::to_string(m), chain_form(m, -0.9, 1.5),
                     structural_basis(m)});
    }
    out.push_back(kkt_root_case());
    return out;
  }();
  return cases;
}

/// The basis matrix as an explicit dense m x m array (row-major;
/// column p is the form column basic[p]), independent of BasisFactor.
struct DenseBasis {
  int m = 0;
  std::vector<double> a;

  DenseBasis(const BoundedForm& form, const std::vector<int>& basic)
      : m(form.num_rows), a(static_cast<std::size_t>(m) * m, 0.0) {
    for (int p = 0; p < m; ++p) {
      const int col = basic[p];
      if (col < form.num_structs) {
        for (int t = form.col_start[col]; t < form.col_start[col + 1]; ++t) {
          at(form.col_row[t], p) += form.col_val[t];
        }
      } else {
        // Logical and artificial columns are both +e_row.
        const int row = col < form.num_structs + form.num_rows
                            ? col - form.num_structs
                            : col - form.num_structs - form.num_rows;
        at(row, p) += 1.0;
      }
    }
  }

  double& at(int row, int col) {
    return a[static_cast<std::size_t>(row) * m + col];
  }
  [[nodiscard]] double at(int row, int col) const {
    return a[static_cast<std::size_t>(row) * m + col];
  }

  /// B x (x by basis position, result by row).
  [[nodiscard]] std::vector<double> times(const std::vector<double>& x) const {
    std::vector<double> out(m, 0.0);
    for (int r = 0; r < m; ++r) {
      for (int p = 0; p < m; ++p) out[r] += at(r, p) * x[p];
    }
    return out;
  }

  /// B' y (y by row, result by basis position).
  [[nodiscard]] std::vector<double> transpose_times(
      const std::vector<double>& y) const {
    std::vector<double> out(m, 0.0);
    for (int r = 0; r < m; ++r) {
      for (int p = 0; p < m; ++p) out[p] += at(r, p) * y[r];
    }
    return out;
  }

  /// The exchange BasisFactor::update(r, w) represents: position r takes
  /// the column whose ftran image is w, i.e. the column B w.
  void replace(int r, const std::vector<double>& w) {
    const std::vector<double> col = times(w);
    for (int row = 0; row < m; ++row) at(row, r) = col[row];
  }
};

double max_abs(const std::vector<double>& v) {
  double out = 0.0;
  for (const double x : v) out = std::max(out, std::abs(x));
  return out;
}

/// ftran and btran of `factor` solve the explicit basis `basis` on random
/// right-hand sides: ||B ftran(b) - b|| and ||B' btran(c) - c|| stay
/// below tol, scaled by the solution's magnitude.
void expect_small_residuals(const BasisFactor& factor, const DenseBasis& basis,
                            util::Rng& rng, double tol,
                            const std::string& what) {
  const int m = basis.m;
  std::vector<double> b(m);
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = b;
  factor.ftran(x);
  const std::vector<double> bx = basis.times(x);
  const double fscale = std::max(1.0, max_abs(x));
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(bx[i], b[i], tol * fscale) << "ftran" << what << " row " << i;
  }

  std::vector<double> c(m);
  for (double& v : c) v = rng.uniform(-5.0, 5.0);
  std::vector<double> y = c;
  factor.btran(y);
  const std::vector<double> bty = basis.transpose_times(y);
  const double bscale = std::max(1.0, max_abs(y));
  for (int p = 0; p < m; ++p) {
    EXPECT_NEAR(bty[p], c[p], tol * bscale)
        << "btran" << what << " position " << p;
  }
}

/// Applies `count` product-form updates with well-conditioned random
/// columns to `factor`, mirrors each exchange in `basis`, and checks
/// the residuals after every one.
void update_and_check(BasisFactor& factor, DenseBasis& basis, int count,
                      util::Rng& rng, double tol) {
  const int m = basis.m;
  for (int u = 0; u < count; ++u) {
    const int r = rng.uniform_int(0, m - 1);
    std::vector<double> w(m);
    for (double& v : w) {
      v = rng.bernoulli(0.5) ? rng.uniform(-2.0, 2.0) : 0.0;
    }
    w[r] = rng.uniform(1.0, 3.0);  // safely away from the pivot tol
    ASSERT_TRUE(factor.update(r, w));
    basis.replace(r, w);
    expect_small_residuals(factor, basis, rng, tol,
                           " after update " + std::to_string(u + 1));
  }
}

TEST(BasisFactor, FactorSolvesHaveSmallResiduals) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = rng.uniform_int(2, 8);
    const int m = rng.uniform_int(1, 8);
    const Model model = make_model(rng, n, m);
    const BoundedForm form = BoundedForm::build(model);
    const std::vector<int> basic = pick_basis(form, rng);

    BasisFactor factor;
    ASSERT_TRUE(factor.factorize(form, basic));
    expect_small_residuals(factor, DenseBasis(form, basic), rng, 1e-9, "");
  }
  for (const BasisCase& c : structured_cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(static_cast<int>(c.basic.size()), c.form.num_rows);
    BasisFactor factor;
    ASSERT_TRUE(factor.factorize(c.form, c.basic));
    expect_small_residuals(factor, DenseBasis(c.form, c.basic), rng, 1e-9,
                           "");
  }
}

TEST(BasisFactor, SingularBasesAreReported) {
  // A repeated column, and a chain whose last pivot cancels exactly
  // only through its indirect reach: b = -(-a)^(m-1) with a = -0.5
  // leaves every intermediate value a power of two.
  for (const int m : {2, 5, 40}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    const BoundedForm chain = chain_form(m, -0.5, -std::ldexp(1.0, 1 - m));
    std::vector<int> repeated = structural_basis(m);
    repeated[m - 1] = 0;
    for (const std::vector<int>& basic : {structural_basis(m), repeated}) {
      BasisFactor factor;
      EXPECT_FALSE(factor.factorize(chain, basic));
    }
  }
}

TEST(BasisFactor, EtaUpdatesKeepResidualsSmall) {
  util::Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = rng.uniform_int(3, 8);
    const int m = rng.uniform_int(2, 8);
    const Model model = make_model(rng, n, m);
    const BoundedForm form = BoundedForm::build(model);
    const std::vector<int> basic = pick_basis(form, rng);

    BasisFactor factor;
    ASSERT_TRUE(factor.factorize(form, basic));
    DenseBasis basis(form, basic);
    expect_small_residuals(factor, basis, rng, 1e-9, "");

    const int updates = rng.uniform_int(1, 5);
    update_and_check(factor, basis, updates, rng, 1e-8);
    EXPECT_EQ(factor.pivots_since_factor(), updates);
    EXPECT_EQ(factor.eta_count(), updates);
  }
  for (const BasisCase& c : structured_cases()) {
    SCOPED_TRACE(c.name);
    BasisFactor factor;
    ASSERT_TRUE(factor.factorize(c.form, c.basic));
    DenseBasis basis(c.form, c.basic);
    update_and_check(factor, basis, 3, rng, 1e-8);
  }
}

TEST(BasisFactor, ResidualAccuracyOnFactorizedBasis) {
  // B * ftran(e_i) must reproduce e_i: feed unit vectors through and
  // check the row residual. This is the factor-level version of the
  // solver's terminal accuracy check.
  util::Rng rng(23);
  const Model model = make_model(rng, 6, 6);
  const BoundedForm form = BoundedForm::build(model);
  const std::vector<int> basic = pick_basis(form, rng);
  const DenseBasis basis(form, basic);
  const int m = form.num_rows;

  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(form, basic));

  for (int i = 0; i < m; ++i) {
    std::vector<double> e(m, 0.0);
    e[i] = 1.0;
    factor.ftran(e);  // e := B^{-1} e_i, basis-position indexed
    const std::vector<double> be = basis.times(e);
    for (int r = 0; r < m; ++r) {
      EXPECT_NEAR(be[r], r == i ? 1.0 : 0.0, 1e-9)
          << "column " << i << " row " << r;
    }
  }
}

TEST(BasisFactor, FactorizeTimerObservesEachSuccessfulFactorization) {
  obs::set_enabled(true);
  const BasisCase& chain = structured_cases().front();
  const BoundedForm singular = chain_form(5, -0.5, -std::ldexp(1.0, -4));
  BasisFactor factor;
  const obs::MetricsSnapshot before = obs::snapshot();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(factor.factorize(chain.form, chain.basic));
  }
  EXPECT_FALSE(factor.factorize(singular, structural_basis(5)));
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  const obs::MetricValue* h = d.find("simplex.factorize_ns");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->kind, obs::MetricKind::Histogram);
  EXPECT_EQ(h->hist.count, 3u);
}

TEST(BasisFactor, FillInTriggersRefactorizeBeforePivotInterval) {
  obs::set_enabled(true);
  util::Rng rng(31);
  const Model model = make_model(rng, 8, 8);
  const BoundedForm form = BoundedForm::build(model);
  const int m = form.num_rows;
  std::vector<int> basic;
  for (int i = 0; i < m; ++i) basic.push_back(form.logical_col(i));

  BasisFactor factor;
  const obs::MetricsSnapshot before = obs::snapshot();
  ASSERT_TRUE(factor.factorize(form, basic));
  EXPECT_FALSE(factor.fillin_triggered());
  EXPECT_FALSE(factor.needs_refactor());

  // Dense etas blow past kEtaFillFactor * (lu_nnz + m) long before the
  // kRefactorInterval pivot backstop.
  int applied = 0;
  while (!factor.fillin_triggered()) {
    ASSERT_LT(applied, lp::kRefactorInterval / 2)
        << "fill-in trigger never fired";
    std::vector<double> w(m);
    for (double& v : w) v = rng.uniform(0.5, 2.0);  // fully dense eta
    ASSERT_TRUE(factor.update(applied % m, w));
    ++applied;
  }
  EXPECT_LT(factor.pivots_since_factor(), lp::kRefactorInterval);
  EXPECT_TRUE(factor.needs_refactor());
  EXPECT_GT(factor.fillin_ratio(), lp::kEtaFillFactor);

  // Refactorizing clears the trigger and counts it in obs.
  ASSERT_TRUE(factor.factorize(form, basic));
  EXPECT_FALSE(factor.fillin_triggered());
  EXPECT_FALSE(factor.needs_refactor());
  EXPECT_EQ(factor.pivots_since_factor(), 0);
  EXPECT_EQ(factor.eta_count(), 0);

  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  EXPECT_EQ(metric(d, "simplex.refactor_fillin_triggers"), 1.0);
  EXPECT_EQ(metric(d, "simplex.eta_count"), applied);
}

TEST(BasisFactor, WarmSolveFactorCacheKeyStaysInSync) {
  // Regression for the PR 4 stale-key class: after a warm solve whose
  // pivots mutate the cached factorization, a re-solve from the same
  // hint must NOT reuse the factor (the pristine gate), and repeated
  // re-solves must be bit-identical. The obs counters separate the two
  // mechanisms: cache hits only on genuinely pristine re-use,
  // refactorizations otherwise.
  obs::set_enabled(true);
  util::Rng rng(43);
  const Model model = make_model(rng, 6, 5);
  std::vector<double> lb(model.num_vars()), ub(model.num_vars());
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
  }
  lp::SimplexOptions opt;
  opt.certify = false;

  lp::WarmStartContext ctx(model);
  const lp::SimplexSolver solver(opt);
  const lp::Solution root = solver.solve_with_bounds(model, lb, ub, ctx);
  ASSERT_EQ(root.status, lp::SolveStatus::Optimal);
  const std::shared_ptr<const lp::Basis> basis = ctx.take_result();
  ASSERT_NE(basis, nullptr);

  // A child whose warm solve pivots (tighten a bound through the
  // optimal point), then the SAME child again. Pivots from the first
  // solve dirty the factor, so the second must refactorize, not hit.
  std::vector<double> clb = lb, cub = ub;
  int tightened = -1;
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    if (root.values[v] > lb[v] + 0.5 && std::isfinite(root.values[v])) {
      cub[v] = root.values[v] - 0.25;
      tightened = static_cast<int>(v);
      break;
    }
  }
  ASSERT_GE(tightened, 0) << "family regressed: no tightenable variable";

  std::vector<double> objectives;
  std::vector<double> hits, refactors;
  for (int round = 0; round < 4; ++round) {
    const obs::MetricsSnapshot before = obs::snapshot();
    ctx.hint = basis.get();
    const lp::Solution child = solver.solve_with_bounds(model, clb, cub, ctx);
    const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
    ASSERT_TRUE(child.status == lp::SolveStatus::Optimal ||
                child.status == lp::SolveStatus::Infeasible);
    // The warm rung must answer; a cold fallback would make the counter
    // assertions below vacuous.
    ASSERT_EQ(ctx.last_path, lp::WarmStartContext::Path::WarmDual);
    objectives.push_back(child.status == lp::SolveStatus::Optimal
                             ? child.objective
                             : -1.0);
    hits.push_back(metric(d, "simplex.factor_cache_hits"));
    refactors.push_back(metric(d, "simplex.refactorizations"));
  }
  obs::set_enabled(false);

  // Bit-identical answers across rounds — the cache must never change
  // the result, whether it hit or not.
  for (std::size_t i = 1; i < objectives.size(); ++i) {
    EXPECT_EQ(objectives[i], objectives[0]) << "round " << i;
  }
  // Every round after the first starts from a dirtied factor: if any
  // of them claimed a cache hit without refactorizing, the key went
  // stale. (A hit plus zero refactorizations would mean the engine
  // reused a factorization for the wrong basis.)
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i] > 0.0) {
      EXPECT_GE(refactors[i] + hits[i], 1.0) << "round " << i;
    } else {
      EXPECT_GE(refactors[i], 1.0) << "round " << i;
    }
  }
}

}  // namespace
}  // namespace metaopt
