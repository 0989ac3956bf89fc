// The LP solver front end, SimplexSolver, with two engines behind it.
//
//  * The warm-start overload of solve_with_bounds runs the revised
//    simplex core (lp/revised_simplex.h) through a three-rung fallback
//    ladder. Branch-and-bound node LPs and the TE direct solves
//    (te::MaxFlowLp) take this path.
//  * solve() and the two-argument solve_with_bounds run a two-phase
//    dense-tableau primal simplex over the StandardForm program. It is
//    the ladder's last rung and the differential baseline for tests;
//    the KKT primal heuristic (kkt::solve_inner_at) still calls it
//    directly.
//
// The tableau handles LessEqual and Equal rows, negative right-hand
// sides (via row scaling + artificials), degenerate cycling (Dantzig
// pricing with a permanent switch to Bland's rule after a stall),
// infeasibility and unboundedness detection, and optimal dual /
// reduced-cost extraction.
//
// Metrics: every public solve counts once in simplex.solves and the
// simplex.solve span, whichever rung answers it; simplex.tableau_fallbacks
// counts warm-start-overload solves that dropped to the tableau rung.
#pragma once

#include "lp/model.h"
#include "lp/solution.h"
#include "lp/standard_form.h"
#include "util/tolerances.h"

namespace metaopt::lp {

/// True in Debug builds: solver hooks certify every optimal solution by
/// default there, while Release keeps certification opt-in.
#ifndef NDEBUG
inline constexpr bool kCertifyByDefault = true;
#else
inline constexpr bool kCertifyByDefault = false;
#endif

/// Entering-variable pricing rule of the revised primal simplex (the
/// dense tableau solver always prices Dantzig-style).
enum class Pricing {
  Dantzig,       ///< most negative reduced cost, full scan
  Partial,       ///< best candidate in a cyclic column window (default)
  SteepestEdge,  ///< Devex reference weights: d^2 / gamma, full scan
};

struct SimplexOptions {
  long max_iterations = 200000;
  double time_limit_seconds = 1e30;
  double pivot_tol = tol::kPivotTol;  ///< min magnitude for a pivot element
  double feas_tol = tol::kFeasTol;    ///< phase-1 residual treated as feasible
  double cost_tol = tol::kCostTol;    ///< reduced-cost optimality tolerance
  long stall_limit = 2000;   ///< degenerate pivots before Bland's rule
  Pricing pricing = Pricing::Partial;  ///< revised primal pricing rule
  /// EXPAND-style anti-degeneracy: after `perturb_after` consecutive
  /// degenerate pivots, relax the active bounds of degenerate basic
  /// variables by deterministic per-column epsilons, finish the solve,
  /// then restore the true bounds and clean up with the dual simplex.
  /// Pure function of the instance (epsilons are hashed from column
  /// ids), so the parallel-B&B determinism contract is preserved.
  bool perturb = true;
  long perturb_after = 50;
  bool want_duals = true;
  /// Run check::certify_lp on every Optimal solve and record the outcome
  /// in Solution::certified (failures are logged at Error level). On by
  /// default in Debug builds, opt-in for Release.
  bool certify = kCertifyByDefault;
};

class WarmStartContext;

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the continuous linear relaxation of `model` (binaries are
  /// relaxed to their boxes; complementarity pairs are ignored).
  [[nodiscard]] Solution solve(const Model& model) const;

  /// Same, with per-variable bound overrides (size model.num_vars()).
  [[nodiscard]] Solution solve_with_bounds(const Model& model,
                                           const std::vector<double>& lb,
                                           const std::vector<double>& ub) const;

  /// Same, through the warm-started revised simplex core. Rungs of a
  /// fallback ladder, first trustworthy answer wins:
  ///   1. bounded dual simplex from `warm.hint` (when non-null),
  ///   2. cold revised simplex,
  ///   3. the dense-tableau solver above (always succeeds or reports
  ///      honestly — same contract as the two-argument overload;
  ///      counted in simplex.tableau_fallbacks).
  /// Records the winning rung in warm.last_path and, when a revised rung
  /// proved optimality, the optimal basis in warm (take_result()).
  [[nodiscard]] Solution solve_with_bounds(const Model& model,
                                           const std::vector<double>& lb,
                                           const std::vector<double>& ub,
                                           WarmStartContext& warm) const;

  [[nodiscard]] const SimplexOptions& options() const { return options_; }

  /// Adjusts the per-solve time budget on an existing solver instance
  /// (branch-and-bound shrinks it as the global deadline approaches).
  void set_time_limit(double seconds) { options_.time_limit_seconds = seconds; }

 private:
  Solution solve_standard(const StandardForm& sf, const Model& model) const;

  /// The tableau path of the two-argument overload, uncounted (the
  /// public entry points own the solve metrics).
  Solution solve_tableau(const Model& model, const std::vector<double>& lb,
                         const std::vector<double>& ub) const;

  /// One revised-simplex rung (warm when use_hint, else cold). Sets
  /// *accepted when the result can be returned as-is; otherwise the
  /// caller drops to the next rung.
  Solution solve_revised(const Model& model, const std::vector<double>& lb,
                         const std::vector<double>& ub, WarmStartContext& warm,
                         bool use_hint, bool* accepted) const;

  /// When options_.certify is set, runs check::certify_lp on an Optimal
  /// `sol` against `model` (with `lb`/`ub` overriding the model bounds
  /// when non-null) and records the verdict in sol.certified.
  void maybe_certify(const Model& model, Solution& sol,
                     const std::vector<double>* lb,
                     const std::vector<double>* ub) const;

  SimplexOptions options_;
};

}  // namespace metaopt::lp
