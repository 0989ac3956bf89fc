// Revised simplex over the bounds-kept BoundedForm, with an explicit
// basis and a warm-start API.
//
// Two entry points:
//   * solve_cold — crash basis (logicals + signed artificials), bounded
//     phase-1 (minimize artificial infeasibility), bounded primal
//     phase-2. Produces an optimal Basis for reuse.
//   * solve_warm — bounded-variable DUAL simplex from a hint basis.
//     A parent-optimal basis stays dual feasible after any bound
//     tightening (costs and matrix are untouched), so a branch-and-bound
//     child re-solves in a handful of dual pivots instead of a full
//     two-phase cold start. Unusable hints (singular basis, lost dual
//     feasibility) return Error and the caller falls back.
//
// The engine keeps the factorization of the last basis it touched:
// when the next warm solve's hint matches (the common case while the
// search plunges) and the factor is pristine (no product-form updates
// since the last full factorize), the O(m^3) refactorization is skipped
// entirely. The pristine gate makes every solve a pure function of
// (bounds, hint) — bit-identical whether or not the cache hit — which
// is what lets the parallel branch-and-bound explore the *same* tree
// regardless of thread count or node scheduling.
//
// Thread-safety: one engine (and one WarmStartContext) per thread; the
// engine is stateful scratch and must never be shared. What *is* shared
// across threads is `Basis` — an immutable status vector handed around
// as shared_ptr<const Basis> — and the const Model. Neither is written
// after publication, so concurrent warm solves from the same parent
// basis are race-free by construction.
//
// Numerical policy: product-form updates accrue roundoff, so the factor
// is rebuilt every kRefactorInterval pivots, and every terminal point
// must pass a row-residual accuracy check before it is reported —
// failures surface as Error, never as a silently wrong Optimal.
#pragma once

#include <memory>
#include <vector>

#include "lp/basis.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solution.h"
#include "lp/standard_form.h"
#include "util/stopwatch.h"

namespace metaopt::lp {

class RevisedSimplex {
 public:
  /// `form` must outlive the engine (WarmStartContext owns both).
  /// `factor` picks the basis factorization backend — sparse LU by
  /// default, the dense inverse for differential tests and benchmarks.
  explicit RevisedSimplex(const BoundedForm& form,
                          FactorKind factor = FactorKind::SparseLU);

  /// Cold solve with the given model-space variable bounds (size
  /// num_structs). Optimal/Infeasible/Unbounded are trustworthy;
  /// Error means "fall back to the tableau solver".
  SolveStatus solve_cold(const SimplexOptions& opt,
                         const std::vector<double>& lb,
                         const std::vector<double>& ub, long* iterations);

  /// Warm re-solve from `hint` (typically the parent node's optimal
  /// basis) after a bound change. Returns Error when the hint is
  /// structurally or numerically unusable.
  SolveStatus solve_warm(const SimplexOptions& opt,
                         const std::vector<double>& lb,
                         const std::vector<double>& ub, const Basis& hint,
                         long* iterations);

  /// Structural (== model variable) values of the last terminal point.
  void primal_values(std::vector<double>& x) const;

  /// Model-space objective of the last terminal point.
  [[nodiscard]] double model_objective() const;

  /// Model-space duals / reduced costs of the last Optimal point, in the
  /// internal-minimization convention documented in lp/solution.h.
  void extract_duals(const Model& model, std::vector<double>& duals,
                     std::vector<double>& reduced_costs) const;

  /// Copies the terminal basis statuses (valid after Optimal).
  void export_basis(Basis& out) const;

 private:
  // ---- shared machinery ----
  void set_bounds(const std::vector<double>& lb, const std::vector<double>& ub);
  void rebuild_positions();
  [[nodiscard]] bool refactorize(double pivot_tol);
  void compute_basic_values();
  /// w := B^{-1} A_j (dense scatter + ftran).
  void ftran_column(int j, std::vector<double>& w) const;
  /// Dot product of an m-vector with column j.
  [[nodiscard]] double col_dot(const std::vector<double>& v, int j) const;
  /// y := B^{-T} c_B for the given cost vector.
  void compute_y(const std::vector<double>& cost, std::vector<double>& y) const;
  [[nodiscard]] bool accuracy_ok(double feas_tol) const;
  [[nodiscard]] double phase1_objective() const;
  /// Applies one basis exchange at position r (entering q along w).
  [[nodiscard]] bool exchange(int r, int q, const std::vector<double>& w,
                              double pivot_tol);
  /// Entering-variable selection for primal_iterate per opt.pricing
  /// (Bland's first-eligible rule when `bland`). Returns the column or
  /// -1 (optimal), with the moving direction in *dir.
  [[nodiscard]] int price_entering(const std::vector<double>& cost, bool bland,
                                   const SimplexOptions& opt, int* dir);
  /// Devex reference-weight update after a pivot (entering q at basis
  /// position r along w = B^{-1} a_q, leaving column lcol).
  void devex_update(int r, int q, int lcol, const std::vector<double>& w);
  /// Relaxes the active bounds of degenerate basic variables by
  /// deterministic per-column epsilons (EXPAND-style anti-degeneracy).
  void apply_perturbation();
  /// Restores every bound apply_perturbation() touched.
  void remove_perturbation();

  /// Bounded primal simplex loop over the current basis/point.
  SolveStatus primal_iterate(const std::vector<double>& cost, bool phase1,
                             const SimplexOptions& opt, long* iters);
  /// Bounded dual simplex loop (requires a dual-feasible basis).
  SolveStatus dual_iterate(const SimplexOptions& opt, long* iters);

  const BoundedForm& form_;
  int n_;  ///< structural columns
  int m_;  ///< rows
  int total_;  ///< n_ + 2 m_

  std::vector<double> cost2_;  ///< phase-2 costs (structural, rest 0)
  std::vector<double> cl_, cu_;
  std::vector<double> x_;
  std::vector<VarStatus> status_;
  std::vector<int> basic_;
  std::vector<int> pos_;  ///< column -> basis position, -1 when nonbasic

  BasisFactor factor_;
  std::vector<int> factored_basic_;  ///< basis the factor was built for

  util::Stopwatch watch_;  ///< reset at each solve entry (time limit)

  // pricing state (reset at each primal iterate entry)
  int price_cursor_ = 0;       ///< partial pricing resume point
  std::vector<double> devex_;  ///< Devex reference weights (SteepestEdge)

  // anti-degeneracy perturbation (solve_cold only; see simplex.h)
  struct BoundPerturbation {
    int col;
    double cl, cu;  ///< true bounds to restore
  };
  std::vector<BoundPerturbation> perturb_undo_;
  bool perturbed_ = false;

  // scratch
  std::vector<double> w_, rho_, y_, resid_, cost1_;
};

/// Warm-start state threaded through SimplexSolver::solve_with_bounds:
/// the BoundedForm built once per model (a B&B tree, a te::MaxFlowLp),
/// the revised-simplex engine (with its factorization cache), and the
/// per-solve hint/result basis handles.
///
/// Not thread-safe: in a parallel tree search every worker owns its own
/// context (form + engine + hint slot), and te::MaxFlowLp lends one
/// context per concurrent solve. Solvers still share bases freely —
/// `hint` points at an immutable shared Basis and `result_` is
/// published as shared_ptr<const Basis>.
class WarmStartContext {
 public:
  explicit WarmStartContext(const Model& model,
                            FactorKind factor = FactorKind::SparseLU)
      : form(BoundedForm::build(model)), engine(form, factor) {}
  WarmStartContext(const WarmStartContext&) = delete;
  WarmStartContext& operator=(const WarmStartContext&) = delete;

  BoundedForm form;
  RevisedSimplex engine;

  /// Parent-optimal basis to warm the next solve from (set per node;
  /// null solves cold through the revised core).
  const Basis* hint = nullptr;

  enum class Path { WarmDual, ColdRevised, Tableau };
  /// Which ladder rung produced the last solve's answer.
  Path last_path = Path::Tableau;

  /// Optimal basis of the last revised solve (null when the tableau
  /// fallback answered or the solve was not Optimal).
  [[nodiscard]] std::shared_ptr<const Basis> take_result() {
    return std::move(result_);
  }
  void set_result(std::shared_ptr<const Basis> basis) {
    result_ = std::move(basis);
  }

 private:
  std::shared_ptr<const Basis> result_;
};

}  // namespace metaopt::lp
