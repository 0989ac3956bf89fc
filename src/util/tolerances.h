// The numeric tolerances shared across the LP/MIP/KKT/check layers.
//
// Every solver and verifier in the tree used to carry its own literal
// (1e-9 here, 1e-6 there); this header is the single source of truth so
// that the solution certifier (src/check) can derive its acceptance
// thresholds from the *same* constants the solvers optimize against. A
// certifier stricter than the solver would reject legitimate optima; one
// unrelated to the solver would silently drift. Keep them coupled. The
// solvers read these constants directly: no option struct carries a
// copy that a caller could set apart from them.
//
// Rationale for the magnitudes:
//  * the simplex solves basis systems through an LU factor plus eta
//    updates on problems whose data sits around 1e0..1e4 (capacities,
//    demands), so residuals of ~1e-10..1e-8 per binding row are routine;
//  * branch-and-bound composes simplex answers, so its integrality /
//    complementarity tolerances sit an order of magnitude looser;
//  * KKT points assembled from direct solves (kkt/parametric.h) push
//    simplex noise through stationarity sums, so feasibility screens for
//    *assembled* points are looser still (kAssembledPointTol).
#pragma once

namespace metaopt::tol {

// ---- simplex (lp/revised_simplex.cpp, lp/basis.cpp) ----

/// Minimum magnitude for a pivot element; anything smaller is treated as
/// zero to avoid dividing by numerical dust.
inline constexpr double kPivotTol = 1e-9;

/// Phase-1 residual below which the program counts as feasible.
inline constexpr double kFeasTol = 1e-7;

/// Reduced-cost threshold for simplex optimality ("dual" tolerance).
inline constexpr double kCostTol = 1e-9;

// ---- bound handling ----

/// Slack used when branch-and-bound tests a node's box for emptiness
/// (lb > ub + kFixTol).
inline constexpr double kFixTol = 1e-12;

// ---- branch-and-bound (mip/branch_and_bound.cpp) ----

/// Integrality tolerance for binaries: a relaxation value within this
/// of an integer counts as integral.
inline constexpr double kIntTol = 1e-6;

/// Complementarity tolerance: a pair (a, b) counts as satisfied when
/// min(|a|, |b|) is below this.
inline constexpr double kComplTol = 1e-6;

/// Relative / absolute incumbent-vs-bound gaps at which the search stops
/// and declares optimality.
inline constexpr double kRelGap = 1e-6;
inline constexpr double kAbsGap = 1e-7;

// ---- anti-degeneracy bound perturbation (lp/revised_simplex.cpp) ----

/// Base magnitude of the EXPAND-style bound relaxation applied to
/// degenerate basic variables after a stall: each perturbed bound moves
/// outward by kPerturbBase * (1 + hash01(col)) * (1 + |bound|). One
/// order above kCostTol so the spread actually separates tied ratio
/// tests, two below kFeasTol so the post-restore dual cleanup moves by
/// steps the accuracy check considers noise.
inline constexpr double kPerturbBase = 1e-8;

/// A basic variable within this relative distance of a finite bound
/// counts as degenerate-active and gets that bound perturbed.
inline constexpr double kPerturbActiveTol = 1e-7;

// ---- presolve (lp/presolve.cpp) ----

/// Activity-bound slack below which presolve rounds and comparisons are
/// considered exact.
inline constexpr double kPresolveTol = 1e-9;

// ---- assembled KKT points / heuristic incumbents ----

/// Feasibility screen for externally assembled points (primal-heuristic
/// incumbents, initial incumbents, certified MIP solutions). Sized for
/// KKT points assembled from direct solves, whose duals and slacks carry
/// simplex-tolerance noise through the stationarity sums.
inline constexpr double kAssembledPointTol = 1e-4;

// ---- model lint (check/lint.cpp) ----

/// Coefficient / rhs magnitude above which the linter flags a suspicious
/// big-M. Beyond ~1e8 a big-M row spans more than ~16 orders of
/// magnitude against unit-scale data, which is where the KKT rewrite's
/// indicator constraints start losing their discrete meaning to
/// floating-point absorption.
inline constexpr double kBigMWarn = 1e8;

// ---- certifier (check/certify.h defaults) ----

/// Base tolerance for the LP certificate's scaled primal / dual /
/// complementary-slackness / objective checks: one order looser than
/// kFeasTol because the certifier re-accumulates row activities in plain
/// double sums without the solver's cancellation structure.
inline constexpr double kCertifyTol = 1e-6;

}  // namespace metaopt::tol
