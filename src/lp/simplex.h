// The LP solver front end, SimplexSolver, over one engine: the revised
// simplex core (lp/revised_simplex.h) on the bounds-kept BoundedForm
// with a sparse LU basis factorization (lp/basis.h).
//
// Every product solve goes through the warm-start overload of
// solve_with_bounds: branch-and-bound node LPs, the TE direct solves
// (te::MaxFlowLp, whose cold solves bring a greedy-routing primal start
// basis) and the KKT primal heuristic's inner solves (kkt::InnerLp).
// solve() is the one-shot entry point, a cold revised solve from the
// slack crash through a local WarmStartContext.
//
// Metrics: every public solve counts once in simplex.solves and the
// simplex.solve span; simplex.warm_solves, simplex.warm_fallbacks and
// simplex.cold_revised_solves say which rung answered it, and
// simplex.start_solves / simplex.start_rejects whether a cold rung's
// primal start was used or fell back to the crash.
// Certification runs inside the simplex.certify span.
#pragma once

#include "lp/model.h"
#include "lp/solution.h"

namespace metaopt::lp {

/// True in Debug builds: solver hooks certify every optimal solution by
/// default there, while Release keeps certification opt-in.
#ifndef NDEBUG
inline constexpr bool kCertifyByDefault = true;
#else
inline constexpr bool kCertifyByDefault = false;
#endif

struct SimplexOptions {
  long max_iterations = 200000;
  double time_limit_seconds = 1e30;
  long stall_limit = 2000;   ///< degenerate pivots before Bland's rule
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
  /// relaxed to their boxes; complementarity pairs are ignored): a cold
  /// solve_with_bounds at the model's own bounds.
  [[nodiscard]] Solution solve(const Model& model) const;

  /// Same, with per-variable bound overrides (size model.num_vars()),
  /// through the warm-started revised simplex core. Two rungs, first
  /// accepted answer wins:
  ///   1. bounded dual simplex from `warm.hint` (when non-null); an
  ///      unusable hint (Error, IterationLimit) or an optimum the
  ///      certifier rejects drops to rung 2,
  ///   2. cold revised simplex (from `warm.start` when non-null and
  ///      usable, else the slack crash), whose answer is final: Error and
  ///      IterationLimit come back as-is (no values), and a rejected
  ///      optimum comes back with certified == false (already logged).
  /// Records the answering rung in warm.last_path and, when it proved
  /// optimality, the optimal basis in warm (take_result()).
  [[nodiscard]] Solution solve_with_bounds(const Model& model,
                                           const std::vector<double>& lb,
                                           const std::vector<double>& ub,
                                           WarmStartContext& warm) const;

  [[nodiscard]] const SimplexOptions& options() const { return options_; }

  /// Adjusts the per-solve time budget on an existing solver instance
  /// (branch-and-bound shrinks it as the global deadline approaches).
  void set_time_limit(double seconds) { options_.time_limit_seconds = seconds; }

 private:
  /// One revised-simplex rung (warm when use_hint, else cold). Sets
  /// *accepted when the result can be returned as-is; otherwise the
  /// caller drops to the cold rung.
  Solution solve_revised(const Model& model, const std::vector<double>& lb,
                         const std::vector<double>& ub, WarmStartContext& warm,
                         bool use_hint, bool* accepted) const;

  /// When options_.certify is set, runs check::certify_lp on an Optimal
  /// `sol` against `model` with `lb`/`ub` overriding the model bounds
  /// and records the verdict in sol.certified.
  void maybe_certify(const Model& model, Solution& sol,
                     const std::vector<double>& lb,
                     const std::vector<double>& ub) const;

  SimplexOptions options_;
};

}  // namespace metaopt::lp
