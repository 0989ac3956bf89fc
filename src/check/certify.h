// Independent solution certification for LP and MIP solves.
//
// The adversarial gaps this system emits are only as trustworthy as the
// hand-rolled simplex and branch-and-bound behind them: a silent
// numerical bug would fabricate or hide gaps with no visible failure.
// The certifier re-verifies a reported solution *from the raw model* —
// no basis, no factorization, no solver internals — so a passing certificate
// is evidence independent of the code path that produced the solution.
//
// certify_lp checks the four KKT pillars of the continuous relaxation:
//   P  primal feasibility       rows and bounds hold at `values`;
//   D  dual feasibility         inequality duals have the right sign and
//                               the Lagrangian gradient vanishes against
//                               each variable's active-bound pattern
//                               (stationarity); reported reduced costs
//                               must match their bound pattern too;
//   C  complementary slackness  no row has both a nonzero multiplier and
//                               nonzero slack;
//   O  objective integrity      the reported objective equals c'x, and
//                               the primal and dual objectives agree
//                               (strong duality). The duality-gap check
//                               only runs when P, D and C passed — it is
//                               meaningless on inconsistent inputs.
//
// Dual conventions (verified against the solver, and the same mapping
// kkt/parametric.cpp uses): duals are multipliers of the *internally
// minimized* problem. Writing s = +1 for Minimize, -1 for Maximize and
// canonicalizing every row as g(x) <= 0 (LessEqual: a'x - b; GreaterEqual:
// b - a'x) or g(x) == 0 (Equal: a'x - b), the reported dual y_i is the
// canonical multiplier: y_i >= 0 for every inequality row regardless of
// sense, free for equalities, entering stationarity as
//   s*c_v + sum_i y_i * dg_i/dx_v = nu_v - mu_v
// with nu_v, mu_v >= 0 the implicit lower/upper bound multipliers
// (equalities contribute with dg/dx = -a, see canon.cpp).
//
// certify_mip is a feasibility certificate (MIP duality is out of scope):
// rows, bounds, binary integrality, complementarity-pair products, the
// reported objective, and incumbent-vs-bound consistency.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"
#include "lp/solution.h"
#include "util/tolerances.h"

namespace metaopt::check {

/// The violation classes a certificate can report. Each check scales its
/// threshold by the local magnitude of the data entering it, so one base
/// tolerance covers models from unit scale up to big-M scale.
enum class ViolationClass {
  Structure,              ///< wrong sizes / non-certifiable status
  PrimalFeasibility,      ///< row or bound violated at `values`
  DualFeasibility,        ///< dual sign or stationarity broken
  ComplementarySlackness, ///< multiplier and slack both nonzero
  ObjectiveMismatch,      ///< reported objective != objective at `values`
  DualityGap,             ///< primal and dual objectives disagree
  Integrality,            ///< binary variable not integral (MIP)
  Complementarity,        ///< complementarity pair product nonzero (MIP)
  BoundConsistency,       ///< incumbent inconsistent with best_bound (MIP)
};

const char* to_string(ViolationClass cls);

struct Violation {
  ViolationClass cls = ViolationClass::Structure;
  /// Offending row/variable/pair name, or a synthesized "row#i".
  std::string where;
  double measured = 0.0;  ///< violation magnitude (absolute)
  double allowed = 0.0;   ///< the scaled threshold it exceeded
  std::string detail;
};

struct CertifyOptions {
  /// Base tolerance for row/bound feasibility (scaled by row activity).
  double primal_tol = tol::kCertifyTol;
  /// Base tolerance for dual signs and stationarity residuals.
  double dual_tol = tol::kCertifyTol;
  /// Base tolerance for complementary slackness: a row fails when both
  /// min(|dual|, |slack|) sides exceed it (scaled).
  double compl_tol = tol::kCertifyTol;
  /// Base tolerance for objective recomputation and the duality gap.
  double obj_tol = tol::kCertifyTol;
  /// Integrality tolerance for binaries (MIP).
  double int_tol = tol::kIntTol;
  /// Incumbent-vs-bound gaps accepted for a proven-Optimal MIP solve.
  double mip_rel_gap = tol::kRelGap;
  double mip_abs_gap = tol::kAbsGap;

  /// The defaults suit LP solves: kCertifyTol is no stricter than what
  /// the simplex was asked to achieve (util/tolerances.h). for_mip()
  /// loosens them to what branch-and-bound accepts from assembled KKT
  /// points.
  static CertifyOptions for_mip();
};

struct Certificate {
  bool ok = true;
  std::vector<Violation> violations;
  /// True when the dual pillars (D, C, duality gap) were evaluated.
  bool checked_duals = false;
  // Summary magnitudes (worst scaled ratio violation/allowed per pillar;
  // <= 1 means within tolerance).
  double max_primal = 0.0;
  double max_dual = 0.0;
  double max_compl = 0.0;
  double objective_error = 0.0;
  double duality_gap = 0.0;

  [[nodiscard]] bool has(ViolationClass cls) const;
  [[nodiscard]] int count(ViolationClass cls) const;
  /// One line per violation plus a summary; "certified" when ok.
  [[nodiscard]] std::string to_string() const;
};

/// Certifies an LP solve of `model` (continuous relaxation semantics:
/// binaries are boxes, complementarity pairs are ignored — use
/// certify_mip for those). Only Optimal solutions get the dual pillars;
/// Feasible/limit statuses are checked for primal feasibility and
/// objective integrity, and non-solution statuses (Infeasible, Unbounded,
/// Error) yield a Structure violation since there is nothing to certify.
/// `lb`/`ub` override the model bounds when non-null (size num_vars) —
/// pass the node box when certifying a branch-and-bound node relaxation.
[[nodiscard]] Certificate certify_lp(const lp::Model& model,
                                     const lp::Solution& solution,
                                     const CertifyOptions& options = {},
                                     const std::vector<double>* lb = nullptr,
                                     const std::vector<double>* ub = nullptr);

/// Certifies a MIP incumbent: primal feasibility, binary integrality,
/// complementarity products, objective recomputation, and that the
/// incumbent is consistent with the reported best_bound (equal within
/// the stopping gaps for Optimal; on the correct side otherwise).
[[nodiscard]] Certificate certify_mip(const lp::Model& model,
                                      const lp::Solution& solution,
                                      const CertifyOptions& options = {});

}  // namespace metaopt::check
