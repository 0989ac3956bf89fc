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
// which must hold on the fresh d.
//
// The primal prices from the fresh y = B^{-T} c_B of every pivot, bit for
// bit (maintained d would change its pivot choices, and so the trees),
// but on forms of at least kHyperMinRows rows it pays only for what an
// exchange changed (DESIGN.md, "Primal pricing that pays per change"):
// BasisFactor::cost_btran_update recomputes the entries of y with an
// input whose bits changed and lists the rows whose bits changed; each
// column caches its score, and a column with a nonzero in such a row
// (found through the row-wise copy) or whose status changed is marked
// stale and re-scored with the same cost_j - y'A_j, on demand, before
// pick_entering reads it; pick_entering reproduces the cyclic window
// scan over a bitset of the eligible columns. An entry whose inputs kept
// their bits keeps its bits, so every choice is the dense scan's. A
// refactorization or a new primal_iterate (a new cost vector) re-solves
// y and marks every column stale. Smaller forms recompute y and scan
// densely each pivot.
//
// Numerical policy: product-form updates accrue roundoff, so the factor
// is rebuilt every kRefactorInterval pivots, and every terminal point
// must pass a row-residual accuracy check before it is reported —
// failures surface as Error, never as a silently wrong Optimal.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "lp/basis.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solution.h"
#include "lp/bounded_form.h"
#include "util/stopwatch.h"
#include "util/tolerances.h"

namespace metaopt::lp {

/// Columns per partial-pricing window (at least this many; larger
/// problems scan total/8 so a window is never a vanishing fraction).
inline constexpr int kMinPriceWindow = 64;

/// The bits of 64-bit word w of a column bitset that fall in [from, to).
[[nodiscard]] inline std::uint64_t range_bits(int w, int from, int to) {
  std::uint64_t mask = ~std::uint64_t{0};
  if ((w << 6) < from) mask &= ~std::uint64_t{0} << (from & 63);
  if ((w << 6) + 64 > to) mask &= ~(~std::uint64_t{0} << (to & 63));
  return mask;
}

/// The primal's entering choice over cached scores: `eligible` holds one
/// bit per column of [0, total) (none past it) and `score` each eligible
/// column's pricing score. Returns the column RevisedSimplex's partial
/// pricing picks from these candidates, or -1 when none is eligible:
/// under `bland` the lowest eligible column; otherwise the strict
/// maximum (first in scan order on ties) of the first window, in the
/// cyclic scan resuming at *cursor, that holds a candidate, after which
/// *cursor moves past that window (back to where the scan started after
/// the truncated last one). Bland's rule leaves *cursor alone.
/// ready(from, to) runs on each column range [from, to) before any of
/// its bits or scores is read, so stale entries can be brought up to
/// date on demand; the ranges cover only the windows the scan reaches.
template <class Ready>
[[nodiscard]] int pick_entering(const std::vector<std::uint64_t>& eligible,
                                const std::vector<double>& score, int total,
                                bool bland, int* cursor, Ready&& ready) {
  if (bland) {
    for (int from = 0; from < total; from += 64) {
      ready(from, std::min(from + 64, total));
      const std::uint64_t bits = eligible[from >> 6];
      if (bits != 0) return from + std::countr_zero(bits);
    }
    return -1;
  }
  int q = -1;
  double best = 0.0;
  // Eligible columns of [from, to) in ascending order.
  const auto scan = [&](int from, int to) {
    ready(from, to);
    for (int w = from >> 6; w << 6 < to; ++w) {
      for (std::uint64_t bits = eligible[w] & range_bits(w, from, to);
           bits != 0; bits &= bits - 1) {
        const int j = (w << 6) + std::countr_zero(bits);
        if (q < 0 || score[j] > best) {
          best = score[j];
          q = j;
        }
      }
    }
  };
  const int window = std::max(kMinPriceWindow, total / 8);
  const int start = *cursor >= total ? 0 : *cursor;
  for (int first = 0; first < total; first += window) {
    // The window's columns in scan order, wrapping past the last column.
    const int a = start + first;
    const int b = start + std::min(first + window, total);
    if (b <= total) {
      scan(a, b);
    } else if (a >= total) {
      scan(a - total, b - total);
    } else {
      scan(a, total);
      scan(0, b - total);
    }
    if (q >= 0) {
      *cursor = b >= total ? b - total : b;
      return q;
    }
  }
  return -1;
}

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
  [[nodiscard]] bool accuracy_ok();
  /// Phase 1's infeasibility: the sum of cost1_ * x over the basic
  /// artificials (phase1_rows_), in row order.
  [[nodiscard]] double phase1_objective() const;
  /// Applies one basis exchange at position r (entering q along w_).
  [[nodiscard]] bool exchange(int r, int q);
  /// Entering-variable selection for primal_iterate: partial pricing
  /// over a cyclic column window (Bland's first-eligible rule when
  /// `bland`). Returns the column or -1 (optimal), with the moving
  /// direction in *dir. Forms with the row-wise copy price from the
  /// cached scores (refresh_prices, pick_entering); the others compute
  /// y and scan.
  [[nodiscard]] int price_entering(const std::vector<double>& cost, bool bland,
                                   int* dir);
  /// Moving direction of column j under pricing (0 = not eligible:
  /// basic, fixed, or no improving reduced cost cost_j - y'A_j), with
  /// its score in *score. The one pricing rule of both the dense scan
  /// and the cached scores; inline so the dense scan's loop keeps it.
  [[nodiscard]] int price_column(const std::vector<double>& cost,
                                 const std::vector<double>& y, int j,
                                 double* score) const {
    if (status_[j] == VarStatus::Basic) return 0;
    if (cu_[j] - cl_[j] <= 0.0) return 0;  // fixed: can't move
    const double d = cost[j] - form_.col_dot(y, j);
    switch (status_[j]) {
      case VarStatus::AtLower:
        if (d < -tol::kCostTol) {
          *score = -d;
          return 1;
        }
        break;
      case VarStatus::AtUpper:
        if (d > tol::kCostTol) {
          *score = d;
          return -1;
        }
        break;
      case VarStatus::Free:
        if (std::abs(d) > tol::kCostTol) {
          *score = std::abs(d);
          return d < 0.0 ? 1 : -1;
        }
        break;
      case VarStatus::Basic:
        break;
    }
    return 0;
  }
  /// Brings factor_.cost_y() up to date for `cost` and marks stale the
  /// columns whose scores it may have changed: all of them when
  /// !prices_fresh_ (or when the update solved from scratch), none when
  /// no exchange happened since the last call, else the columns with a
  /// nonzero in a row whose y bits changed.
  void refresh_prices(const std::vector<double>& cost);
  /// Re-scores the stale columns of [from, to) from factor_.cost_y().
  void reprice_stale(const std::vector<double>& cost, int from, int to);
  /// Marks column j for re-pricing after its status changed.
  void mark_stale(int j) {
    if (!stale_.empty()) stale_[j >> 6] |= std::uint64_t{1} << (j & 63);
  }
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
  // The primal's cached pricing (forms with the row-wise copy): each
  // column's direction (0 = not eligible) and score for the current cost
  // vector, the eligible columns as a bitset, and the stale columns
  // (whose cached entries are to be recomputed before they are read) as
  // another, valid while prices_fresh_ (cleared by refactorize).
  // price_r_ is the basis position exchanged since the last pricing
  // (-1: none).
  bool prices_fresh_ = false;
  int price_r_ = -1;
  std::vector<int> changed_rows_;
  std::vector<signed char> price_dir_;
  std::vector<double> price_score_;
  std::vector<std::uint64_t> eligible_, stale_;
  // Rows whose artificial is basic, ascending (phase 1 only).
  std::vector<int> phase1_rows_;

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
