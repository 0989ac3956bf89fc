// LP presolve: bound propagation over the constraint activity ranges.
//
// Given a model (and optionally overridden variable bounds, e.g. at a
// branch-and-bound node), repeatedly:
//   * computes each row's minimum/maximum activity,
//   * flags rows that can never be satisfied (node is infeasible),
//   * flags rows that are always satisfied (redundant),
//   * tightens variable bounds implied by each row,
// until a fixpoint or the round cap (kMaxRounds in presolve.cpp),
// rounding tightened binary bounds to exact integers after each round.
// Comparisons use tol::kPresolveTol. Big-M indicator rows — the bulk of
// the DP/POP encodings — respond particularly well: fixing one binary
// propagates into many flow-variable bounds, shrinking the node LPs.
#pragma once

#include <vector>

#include "lp/model.h"

namespace metaopt::lp {

struct PresolveResult {
  /// True when some row is provably unsatisfiable within the bounds.
  bool infeasible = false;
  std::vector<double> lb;
  std::vector<double> ub;
  /// Rows whose max activity already satisfies them (safe to drop).
  std::vector<bool> redundant_rows;
  int rounds = 0;
  int tightenings = 0;

  /// Per-row activity scratch, kept here so a caller that presolves in a
  /// loop (one branch-and-bound node after another) reuses the
  /// allocations instead of growing fresh vectors every node.
  std::vector<double> scratch_term_lo;
  std::vector<double> scratch_term_hi;
};

/// Runs presolve on `model` starting from its own bounds or the given
/// overrides (both must have model.num_vars() entries when non-null).
PresolveResult presolve(const Model& model,
                        const std::vector<double>* lb0 = nullptr,
                        const std::vector<double>* ub0 = nullptr);

/// Same, writing into a caller-owned result whose buffers (bounds,
/// redundant-row flags, scratch) are reused across calls. All outputs
/// are reset first; only capacity survives.
void presolve_into(const Model& model, const std::vector<double>* lb0,
                   const std::vector<double>* ub0, PresolveResult& result);

}  // namespace metaopt::lp
