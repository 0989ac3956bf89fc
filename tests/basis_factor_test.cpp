// Unit tests for BasisFactor: ftran/btran residuals against the
// explicit basis matrix, ||B ftran(b) - b|| and ||B' btran(c) - c||,
// on random bases, chains whose symbolic reach is transitive and a
// sparse KKT node basis, after factorize and after every product-form
// eta update; singular bases, the fill-in-triggered refactorize, the
// factorization timer, and the factored-set cache key staying in sync
// across warm solves (regression for the stale-key bug class). The
// hypersparse kernels are checked bit for bit against their dense
// counterparts: the sparse ftran against the dense ftran (and its
// nonzero list for exactness and order), etas built from that list
// against etas built by a dense scan, and the row-wise pivot row
// against BoundedForm::col_dot.
#include <algorithm>
#include <bit>
#include <cstdint>
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

// ---- hypersparse kernels: bit identity with the dense loops ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A right-hand side with about `density` of its m rows nonzero (at
/// least one), the rows listed in `nz` in random order.
std::vector<double> sparse_rhs(util::Rng& rng, int m, double density,
                               std::vector<int>& nz) {
  std::vector<double> x(m, 0.0);
  nz.clear();
  const int count = std::max(1, static_cast<int>(density * m));
  while (static_cast<int>(nz.size()) < count) {
    const int row = rng.uniform_int(0, m - 1);
    if (x[row] != 0.0) continue;
    x[row] = rng.uniform(0.5, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    nz.push_back(row);
  }
  return x;
}

/// Runs both ftrans of `factor` on `rhs` (rows `nz`) and expects the
/// same bits in every entry. When the sparse path ran, its nonzero list
/// must be strictly ascending and exact: every listed entry nonzero,
/// every other entry +0.0. Returns whether the sparse path ran.
bool expect_sparse_ftran_matches(const BasisFactor& factor,
                                 const std::vector<double>& rhs,
                                 std::vector<int> nz, const std::string& what) {
  std::vector<double> dense = rhs;
  factor.ftran(dense);
  std::vector<double> sparse = rhs;
  const bool took_sparse = factor.ftran(sparse, nz);
  for (std::size_t p = 0; p < dense.size(); ++p) {
    EXPECT_EQ(bits(sparse[p]), bits(dense[p]))
        << what << " position " << p << ": " << sparse[p] << " vs "
        << dense[p];
  }
  if (took_sparse) {
    std::vector<bool> listed(dense.size(), false);
    for (std::size_t k = 0; k < nz.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(nz[k - 1], nz[k]) << what << " list not ascending at " << k;
      }
      listed[nz[k]] = true;
      EXPECT_NE(sparse[nz[k]], 0.0) << what << " lists zero position "
                                    << nz[k];
    }
    for (std::size_t p = 0; p < dense.size(); ++p) {
      if (!listed[p]) {
        EXPECT_EQ(bits(sparse[p]), bits(0.0))
            << what << " unlisted position " << p << " holds " << sparse[p];
      }
    }
  }
  return took_sparse;
}

/// The ftran right-hand side of form column j: a_j, rows listed in nz.
std::vector<double> column_rhs(const BoundedForm& form, int j,
                               std::vector<int>& nz) {
  std::vector<double> x(form.num_rows, 0.0);
  nz.clear();
  for (int t = form.col_start[j]; t < form.col_start[j + 1]; ++t) {
    x[form.col_row[t]] = form.col_val[t];
    nz.push_back(form.col_row[t]);
  }
  return x;
}

TEST(BasisFactor, SparseFtranMatchesDenseBitForBit) {
  // The KKT root basis (m >= kHyperMinRows, mostly singletons) on the
  // fresh factor and after each of 63 simplex-style exchanges: random
  // right-hand sides of 1-5% density and form columns a_q (the simplex's
  // own right-hand sides), plus one dense right-hand side that crosses
  // the switch. Random 1-5% right-hand sides give 2-20% dense results
  // here, so both paths run.
  const BasisCase& c = structured_cases().back();
  ASSERT_GE(c.form.num_rows, lp::kHyperMinRows);
  const int m = c.form.num_rows;
  util::Rng rng(61);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(c.form, c.basic));

  int sparse_runs = 0;
  int runs = 0;
  std::vector<int> nz;
  for (int u = 0; u <= 63; ++u) {
    const std::string when = "after " + std::to_string(u) + " updates";
    for (int trial = 0; trial < 3; ++trial) {
      const double density = rng.uniform(0.01, 0.05);
      const std::vector<double> rhs = sparse_rhs(rng, m, density, nz);
      sparse_runs += expect_sparse_ftran_matches(factor, rhs, nz, when);
      ++runs;
    }
    std::vector<double> w;
    for (int trial = 0; trial < 3; ++trial) {
      const int q = rng.uniform_int(0, c.form.num_structs - 1);
      w = column_rhs(c.form, q, nz);
      if (nz.empty()) continue;
      sparse_runs +=
          expect_sparse_ftran_matches(factor, w, nz, when + " (a_q)");
      ++runs;
    }
    if (u == 63 || nz.empty()) continue;
    // Exchange: the last column enters at its largest ftran entry.
    factor.ftran(w);
    int r = 0;
    for (int p = 1; p < m; ++p) {
      if (std::abs(w[p]) > std::abs(w[r])) r = p;
    }
    if (std::abs(w[r]) > 1e-3) {
      ASSERT_TRUE(factor.update(r, w));
    }
  }
  EXPECT_GT(factor.eta_count(), 31);
  // The dense right-hand side's reach is all of m: the dense loop runs
  // and the bits still match.
  std::vector<double> dense_rhs(m);
  nz.clear();
  for (int i = 0; i < m; ++i) {
    dense_rhs[i] = rng.uniform(-3.0, 3.0);
    nz.push_back(i);
  }
  EXPECT_FALSE(expect_sparse_ftran_matches(factor, dense_rhs, nz,
                                           "dense right-hand side"));
  // Enough runs must take the sparse path for the comparisons to cover
  // it.
  EXPECT_GT(4 * sparse_runs, runs) << sparse_runs << " of " << runs;
}

TEST(BasisFactor, UnitBtranMatchesDense) {
  // The KKT root basis on the fresh factor and after each of 63
  // simplex-style exchanges: btran_unit(e_r) for random positions r
  // against the dense btran of e_r. The values must be equal (the
  // sparse path evaluates the same column sums in the same order and
  // skips only exact zeros, so the dual's pivot row does not depend on
  // which path ran); a sparse result's nonzero list must be strictly
  // ascending and exact. One result vector is reused through the list,
  // as the simplex reuses it.
  const BasisCase& c = structured_cases().back();
  ASSERT_GE(c.form.num_rows, lp::kHyperMinRows);
  const int m = c.form.num_rows;
  util::Rng rng(71);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(c.form, c.basic));

  std::vector<double> x(m, 0.0);
  std::vector<int> nz;
  bool last_sparse = false;
  int sparse_runs = 0;
  int runs = 0;
  for (int u = 0; u <= 63; ++u) {
    const std::string when = "after " + std::to_string(u) + " updates";
    for (int trial = 0; trial < 4; ++trial) {
      const int r = rng.uniform_int(0, m - 1);
      std::vector<double> dense(m, 0.0);
      dense[r] = 1.0;
      factor.btran(dense);
      if (last_sparse) {
        for (const int i : nz) x[i] = 0.0;
      } else {
        x.assign(m, 0.0);
      }
      last_sparse = factor.btran_unit(r, x, nz);
      ++runs;
      for (int i = 0; i < m; ++i) {
        ASSERT_EQ(x[i], dense[i]) << when << " e_" << r << " row " << i;
      }
      if (!last_sparse) continue;
      ++sparse_runs;
      std::vector<bool> listed(m, false);
      for (std::size_t k = 0; k < nz.size(); ++k) {
        if (k > 0) {
          ASSERT_LT(nz[k - 1], nz[k]) << when << " list not ascending";
        }
        listed[nz[k]] = true;
        ASSERT_NE(x[nz[k]], 0.0) << when << " lists zero row " << nz[k];
      }
      for (int i = 0; i < m; ++i) {
        if (!listed[i]) {
          ASSERT_EQ(bits(x[i]), bits(0.0)) << when << " unlisted row " << i;
        }
      }
    }
    if (u == 63) continue;
    // Exchange: a random column enters at its largest ftran entry.
    std::vector<int> col_nz;
    std::vector<double> w =
        column_rhs(c.form, rng.uniform_int(0, c.form.num_structs - 1), col_nz);
    if (col_nz.empty()) continue;
    factor.ftran(w);
    int r = 0;
    for (int p = 1; p < m; ++p) {
      if (std::abs(w[p]) > std::abs(w[r])) r = p;
    }
    if (std::abs(w[r]) > 1e-3) {
      ASSERT_TRUE(factor.update(r, w));
    }
  }
  EXPECT_GT(factor.eta_count(), 31);
  EXPECT_GT(4 * sparse_runs, runs) << sparse_runs << " of " << runs;
}

TEST(BasisFactor, IncrementalBtranMatchesDense) {
  // The primal's cost solve y = B^{-T} c_B kept up to date across
  // simplex-style exchanges, on forms of at least kHyperMinRows rows:
  // the KKT root basis and the slack bases of random models. After each
  // exchange (up to the refactorization trigger) y must equal a fresh
  // dense btran of c_B bit for bit, zero signs included, and every row
  // whose bits changed must be on the returned list. Costs mix random
  // magnitudes, +0.0 and -0.0, and entering columns sometimes keep the
  // leaving column's cost, so some exchanges change no bit of y.
  std::vector<BasisCase> cases = {structured_cases().back()};
  for (const int seed : {5, 6}) {
    util::Rng model_rng(static_cast<std::uint64_t>(seed));
    BasisCase random_case;
    random_case.name = "random-" + std::to_string(seed);
    random_case.form = BoundedForm::build(
        make_model(model_rng, 60, lp::kHyperMinRows + 10 * seed));
    for (int i = 0; i < random_case.form.num_rows; ++i) {
      random_case.basic.push_back(random_case.form.logical_col(i));
    }
    cases.push_back(std::move(random_case));
  }

  long updates = 0;
  long changed_rows = 0;
  for (const BasisCase& c : cases) {
    ASSERT_GE(c.form.num_rows, lp::kHyperMinRows) << c.name;
    const int m = c.form.num_rows;
    const int total = c.form.num_cols();
    for (const int trial : {0, 1, 2}) {
      SCOPED_TRACE(c.name + " trial " + std::to_string(trial));
      util::Rng rng(static_cast<std::uint64_t>(900 + 10 * trial + m));
      std::vector<double> cost(total);
      for (double& v : cost) {
        const double u = rng.uniform(0.0, 1.0);
        v = u < 0.2   ? 0.0
            : u < 0.3 ? -0.0
                      : rng.uniform(-1.0, 1.0) *
                            std::pow(10.0, rng.uniform(-3.0, 3.0));
      }
      std::vector<int> basic = c.basic;
      std::vector<bool> is_basic(total, false);
      for (const int b : basic) is_basic[b] = true;
      BasisFactor factor;
      ASSERT_TRUE(factor.factorize(c.form, basic));
      factor.cost_btran(cost, basic);

      const auto expect_dense_bits = [&](const std::string& when) {
        std::vector<double> dense(m);
        for (int p = 0; p < m; ++p) dense[p] = cost[basic[p]];
        factor.btran(dense);
        for (int i = 0; i < m; ++i) {
          ASSERT_EQ(bits(factor.cost_y()[i]), bits(dense[i]))
              << when << " row " << i << ": " << factor.cost_y()[i]
              << " vs " << dense[i];
        }
      };
      expect_dense_bits("fresh solve");

      std::vector<int> changed;
      std::vector<int> nz;
      while (!factor.needs_refactor()) {
        const int q = rng.uniform_int(0, c.form.num_structs - 1);
        if (is_basic[q]) continue;
        std::vector<double> w = column_rhs(c.form, q, nz);
        if (nz.empty()) continue;
        factor.ftran(w);
        int r = 0;
        for (int p = 1; p < m; ++p) {
          if (std::abs(w[p]) > std::abs(w[r])) r = p;
        }
        if (std::abs(w[r]) <= 1e-3) continue;
        if (rng.bernoulli(0.2)) cost[q] = cost[basic[r]];
        ASSERT_TRUE(factor.update(r, w));
        is_basic[basic[r]] = false;
        is_basic[q] = true;
        basic[r] = q;

        const std::vector<double> before = factor.cost_y();
        ASSERT_TRUE(factor.cost_btran_update(r, cost[q], changed));
        const std::string when =
            "after " + std::to_string(factor.eta_count()) + " exchanges";
        expect_dense_bits(when);
        std::vector<bool> listed(m, false);
        for (const int i : changed) {
          ASSERT_FALSE(listed[i]) << when << " lists row " << i << " twice";
          listed[i] = true;
        }
        for (int i = 0; i < m; ++i) {
          if (bits(factor.cost_y()[i]) != bits(before[i])) {
            ASSERT_TRUE(listed[i]) << when << " misses changed row " << i;
          }
        }
        ++updates;
        changed_rows += static_cast<long>(changed.size());
      }
      // A refactorization invalidates the kept solve: the next update
      // solves from scratch, with the same bits.
      ASSERT_TRUE(factor.factorize(c.form, basic));
      EXPECT_FALSE(factor.cost_btran_update(0, cost[basic[0]], changed));
      expect_dense_bits("after refactorization");
    }
  }
  EXPECT_GT(updates, 100);
  EXPECT_GT(changed_rows, 0);
}

TEST(BasisFactor, EtasFromTheSparseListMatchDenseScanEtas) {
  // Two factors of the KKT root basis take the same 63 exchanges: one
  // builds each eta from the sparse ftran's nonzero list, the other by
  // scanning all m entries. btran sums the eta terms in list order, so
  // any difference in the terms or their order shows in its bits.
  const BasisCase& c = structured_cases().back();
  const int m = c.form.num_rows;
  util::Rng rng(67);
  BasisFactor listed;
  BasisFactor scanned;
  ASSERT_TRUE(listed.factorize(c.form, c.basic));
  ASSERT_TRUE(scanned.factorize(c.form, c.basic));
  int from_list = 0;
  std::vector<int> nz;
  for (int u = 1; u <= 63; ++u) {
    const std::string when = "after " + std::to_string(u) + " updates";
    const int q = rng.uniform_int(0, c.form.num_structs - 1);
    std::vector<double> w = column_rhs(c.form, q, nz);
    if (nz.empty()) continue;
    std::vector<double> w_scan = w;
    const bool sparse = listed.ftran(w, nz);
    scanned.ftran(w_scan);
    int r = 0;
    for (int p = 1; p < m; ++p) {
      if (std::abs(w[p]) > std::abs(w[r])) r = p;
    }
    if (std::abs(w[r]) < 1e-3) continue;
    ASSERT_TRUE(listed.update(r, w, sparse ? &nz : nullptr));
    ASSERT_TRUE(scanned.update(r, w_scan));
    from_list += sparse ? 1 : 0;

    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> y(m);
      for (double& v : y) v = rng.uniform(-2.0, 2.0);
      std::vector<double> y_scan = y;
      listed.btran(y);
      scanned.btran(y_scan);
      for (int i = 0; i < m; ++i) {
        ASSERT_EQ(bits(y[i]), bits(y_scan[i])) << when << " btran row " << i;
      }
      std::vector<double> x = sparse_rhs(rng, m, 0.03, nz);
      std::vector<double> x_scan = x;
      listed.ftran(x);
      scanned.ftran(x_scan);
      for (int p = 0; p < m; ++p) {
        ASSERT_EQ(bits(x[p]), bits(x_scan[p])) << when << " ftran position "
                                               << p;
      }
    }
  }
  EXPECT_GT(from_list, 31) << "too few etas came from a sparse list";
}

TEST(BasisFactor, RowWisePivotRowMatchesColDotBitForBit) {
  // Columns with hundreds of nonzeros and a rho of 1-10% density with
  // magnitudes over many decades: a different summation order would
  // round differently in many columns.
  util::Rng rng(71);
  const Model model = make_model(rng, 40, lp::kHyperMinRows + 24);
  const BoundedForm form = BoundedForm::build(model);
  ASSERT_TRUE(form.has_rows());
  const int n = form.num_structs;
  const int m = form.num_rows;
  std::vector<double> out(n, 0.0);
  std::vector<signed char> mark(n, 0);
  std::vector<int> cols;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<double> rho(m, 0.0);
    std::vector<int> rows;
    const double density = rng.uniform(0.01, 0.1);
    for (int i = 0; i < m; ++i) {
      if (!rng.bernoulli(density)) continue;
      rho[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-6.0, 6.0));
      rows.push_back(i);
    }
    form.row_product(rho, rows, out, cols, mark);
    std::vector<bool> touched(n, false);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(cols[k - 1], cols[k]);
      }
      touched[cols[k]] = true;
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(bits(out[j]), bits(form.col_dot(rho, j)))
          << "column " << j << ": " << out[j] << " vs " << form.col_dot(rho, j);
      EXPECT_EQ(mark[j], 0);
      if (!touched[j]) {
        EXPECT_EQ(bits(out[j]), bits(0.0)) << "column " << j;
      }
    }
    for (const int j : cols) out[j] = 0.0;
  }
}

}  // namespace
}  // namespace metaopt
