// Revised simplex over the bounds-kept BoundedForm, with an explicit
// basis and a warm-start API.
//
// Two entry points:
//   * solve_cold — bounded primal phase 2 from a caller's primal start
//     basis when one is given and usable (m basic columns, factorizes,
//     every basic within its bounds +- tol::kFeasTol); otherwise a crash
//     basis (logicals + signed artificials), bounded phase 1 (minimize
//     artificial infeasibility), then phase 2. An unusable start falls
//     back to the crash inside the same call, so it cannot change a
//     verdict. Produces an optimal Basis for reuse.
//   * solve_warm — bounded-variable DUAL simplex from a hint basis.
//     A parent-optimal basis stays dual feasible after any bound
//     tightening (costs and matrix are untouched), so a branch-and-bound
//     child re-solves in a handful of dual pivots instead of a full
//     two-phase cold start. Unusable hints (singular basis, lost dual
//     feasibility) return Error and the caller solves cold instead.
//
// The engine keeps the factorization of the last basis it touched:
// when the next warm solve's hint matches (the common case while the
// search plunges) and the factor is pristine (no product-form updates
// since the last full factorize), the refactorization is skipped
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
// Per-pivot cost follows the nonzeros on forms of at least
// kHyperMinRows rows: w = B^{-1} a_q comes from the hypersparse ftran
// (lp/basis.h) and the primal ratio test and every update of the point
// walk its ascending nonzero list; the dual takes rho = B^{-T} e_r from
// the hypersparse unit btran, forms its pivot row alpha = rho' A over
// supp(rho) from the form's row-wise copy and visits only the columns
// with alpha != 0, ascending. Each sparse path adds the same terms in
// the same order as its dense loop and skips only exact zeros the dense
// loop skips too, so pivots and answers do not depend on which path
// ran. Small forms and dense vectors keep the dense loops.
//
// The dual prices from maintained reduced costs: d_j -= (d_q/alpha_q) *
// alpha_j over the pivot row at each exchange, instead of a fresh
// y = B^{-T} c_B (a second dense btran) per pivot. d is computed from
// scratch at loop entry (solve_warm seeds it from its dual-feasibility
// scan), after every refactorization and before any Optimal verdict,
// which must hold on the fresh d. The primal keeps recomputing y every
// pivot: maintained d changes its pivot choices, and so the trees (see
// DESIGN.md, "Solver: paying per change").
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
#include "lp/bounded_form.h"
#include "util/stopwatch.h"

namespace metaopt::lp {

class RevisedSimplex {
 public:
  /// `form` must outlive the engine (WarmStartContext owns both).
  explicit RevisedSimplex(const BoundedForm& form);

  /// Cold solve with the given model-space variable bounds (size
  /// num_structs). Optimal/Infeasible/Unbounded are trustworthy;
  /// Error means the engine could not reach a trustworthy terminal point
  /// (singular basis, failed accuracy check) and has no answer.
  /// `start`, when non-null, is a primal feasible basis to run phase 2
  /// from (nonbasics re-pinned to these bounds); an unusable one falls
  /// back to the crash basis.
  SolveStatus solve_cold(const SimplexOptions& opt,
                         const std::vector<double>& lb,
                         const std::vector<double>& ub, long* iterations,
                         const Basis* start = nullptr);

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
  /// Loads `basis`'s statuses and pins every nonbasic column to its
  /// current bound (a bound it lost moves it to the other side, or Free
  /// at 0), then lists the basic columns. False when the status vector
  /// has the wrong size or the basis does not have m basic columns.
  [[nodiscard]] bool load_statuses(const Basis& basis);
  /// Loads a primal start basis (see solve_cold): true when it has m
  /// basic columns, factorizes and puts every basic within its bounds
  /// +- tol::kFeasTol.
  [[nodiscard]] bool load_start(const Basis& start);
  /// Bounded primal phase 2 over the current primal feasible basis,
  /// then the perturbation cleanup and the terminal accuracy check.
  SolveStatus phase2(const SimplexOptions& opt, long* iterations);
  void rebuild_positions();
  [[nodiscard]] bool refactorize();
  void compute_basic_values();
  /// w_ := B^{-1} A_j. Clears the previous w_ (only its nonzeros when
  /// they are listed), scatters column j and runs the sparse-capable
  /// ftran: w_sparse_ says whether w_nz_ lists w_'s nonzero positions
  /// (ascending) or the consumers must walk all m entries.
  void ftran_column(int j);
  /// y := B^{-T} c_B for the given cost vector.
  void compute_y(const std::vector<double>& cost, std::vector<double>& y) const;
  /// d_ := cost2_ - A' B^{-T} c_B from scratch (basic columns 0).
  void refresh_reduced_costs();
  /// No nonbasic, non-fixed d_j has the wrong sign for its status
  /// beyond the warm start's bail tolerance.
  [[nodiscard]] bool dual_feasible() const;
  /// The pivot row of basis position r: rho_ = B^{-T} e_r (rho_nz_ its
  /// ascending nonzero rows) and alpha_j = rho_' A_j, listed in
  /// alpha_nz_ ascending: the structurals with alpha != 0 (in alpha_;
  /// through the row-wise copy when rho_ is sparse, else every
  /// nonbasic, non-fixed structural by col_dot), then the logicals and
  /// artificials of supp(rho).
  void pivot_row(int r);
  /// alpha_j of the current pivot row, for j in alpha_nz_.
  [[nodiscard]] double row_alpha(int j) const;
  /// d_j -= theta * alpha_j over the pivot row's nonbasic, non-fixed
  /// columns; the entering column q's d becomes 0 and the leaving
  /// column's -theta. Call before the statuses change.
  void update_reduced_costs(int q, int leaving, double theta);
  /// Restores alpha_ to +0.0 after a pivot row.
  void clear_pivot_row();
  [[nodiscard]] bool accuracy_ok() const;
  [[nodiscard]] double phase1_objective() const;
  /// Applies one basis exchange at position r (entering q along w_).
  [[nodiscard]] bool exchange(int r, int q);
  /// Entering-variable selection for primal_iterate: partial pricing
  /// over a cyclic column window (Bland's first-eligible rule when
  /// `bland`). Returns the column or -1 (optimal), with the moving
  /// direction in *dir.
  [[nodiscard]] int price_entering(const std::vector<double>& cost, bool bland,
                                   int* dir);
  /// Bounded ratio test of primal_iterate along w_ (direction `dir` of
  /// the entering column): the leaving position or -1, with its step in
  /// *limit and its bound side in *leave_up. kSparse walks w_nz_
  /// instead of all m rows.
  template <bool kSparse>
  [[nodiscard]] int ratio_test(int dir, bool bland, double* limit,
                               bool* leave_up) const;
  /// Entering column of dual_iterate's ratio test over the pivot row
  /// (the leaving value is `below` its bound), or -1, with its ratio
  /// |d_q|/|alpha_q| and alpha_q.
  [[nodiscard]] int dual_entering(bool below, bool bland, double* ratio,
                                  double* alpha) const;
  /// Relaxes the active bounds of degenerate basic variables by
  /// deterministic per-column epsilons (EXPAND-style anti-degeneracy).
  void apply_perturbation();
  /// Restores every bound apply_perturbation() touched.
  void remove_perturbation();

  /// Bounded primal simplex loop over the current basis/point.
  SolveStatus primal_iterate(const std::vector<double>& cost, bool phase1,
                             const SimplexOptions& opt, long* iters);
  /// Bounded dual simplex loop (requires a dual-feasible basis).
  /// `costs_fresh`: d_ already holds the basis's reduced costs for
  /// cost2_ (solve_warm's dual-feasibility scan); else it refreshes.
  SolveStatus dual_iterate(const SimplexOptions& opt, long* iters,
                           bool costs_fresh);

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
  int price_cursor_ = 0;  ///< partial pricing resume point

  // The dual's maintained reduced costs: d_ for cost2_ (valid while
  // dual_costs_), and the exchanges applied since d_ was last computed
  // from scratch.
  std::vector<double> d_;
  bool dual_costs_ = false;
  int d_age_ = 0;

  // anti-degeneracy perturbation (solve_cold only; see simplex.h)
  struct BoundPerturbation {
    int col;
    double cl, cu;  ///< true bounds to restore
  };
  std::vector<BoundPerturbation> perturb_undo_;
  bool perturbed_ = false;

  // scratch
  std::vector<double> w_, rho_, y_, resid_, cost1_;
  std::vector<int> w_nz_;   ///< nonzero positions of w_ when w_sparse_
  bool w_sparse_ = false;
  // pivot row (pivot_row): rho_nz_ lists rho_'s nonzero rows (rho_ is
  // +0.0 elsewhere when rho_sparse_), alpha_ (zero between pivots) the
  // structural entries of the row, alpha_nz_ every column with a
  // nonzero entry (ascending: the structurals, then the logicals and
  // artificials of supp(rho)), alpha_mark_ the row product's scratch
  // flags
  std::vector<int> rho_nz_, alpha_nz_;
  bool rho_sparse_ = false;
  std::vector<double> alpha_;
  std::vector<signed char> alpha_mark_;
};

/// Warm-start state threaded through SimplexSolver::solve_with_bounds:
/// the BoundedForm built once per model (a B&B tree, a te::MaxFlowLp, a
/// kkt::InnerLp), the revised-simplex engine (with its factorization
/// cache), and the per-solve hint/result basis handles.
///
/// Not thread-safe: in a parallel tree search every worker owns its own
/// context (form + engine + hint slot), and te::MaxFlowLp and
/// kkt::InnerLp lend one context per concurrent solve from an
/// lp::WarmStartPool. Solvers still share bases freely —
/// `hint` points at an immutable shared Basis and `result_` is
/// published as shared_ptr<const Basis>.
class WarmStartContext {
 public:
  explicit WarmStartContext(const Model& model)
      : form(BoundedForm::build(model)), engine(form) {}
  WarmStartContext(const WarmStartContext&) = delete;
  WarmStartContext& operator=(const WarmStartContext&) = delete;

  BoundedForm form;
  RevisedSimplex engine;

  /// Parent-optimal basis to warm the next solve from (set per node;
  /// null solves cold through the revised core).
  const Basis* hint = nullptr;

  /// Primal feasible basis for the cold rung to start phase 2 from
  /// (te::MaxFlowLp's greedy routing); null, or unusable, crashes from
  /// the slack/artificial basis.
  const Basis* start = nullptr;

  enum class Path { WarmDual, ColdRevised };
  /// Which ladder rung produced the last solve's answer.
  Path last_path = Path::ColdRevised;

  /// Optimal basis of the last solve (null when the solve was not
  /// Optimal or its optimum failed certification).
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
