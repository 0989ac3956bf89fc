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
//
// Replay (branch-and-bound nodes). A run is a sequence of steps: each
// round visits every row in order, then rounds every binary, and a step
// is a pure function of the bounds of its own variables (and of whether
// its row is already redundant). presolve_record runs the root node's
// presolve (from the model's own bounds, the root box) and keeps, per
// (round, row), each bound it tightened and whether it flagged the row
// redundant, and per round its binary roundings. presolve_replay runs another node's presolve against that
// trace: it tracks, through a variable -> row index, which variables
// hold bounds that are not bit-identical to the root's at the same
// point of the run, copies the root's step for every row none of whose
// variables differ, and recomputes only the other rows (and rounds only
// the differing binaries). Past the root's last round it runs plain
// rounds. The result is bit-identical to presolve_into on the same
// bounds: lb, ub, redundant rows, rounds, tightenings and the infeasible
// flag.
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

  /// presolve_replay's scratch, reused the same way: the root's bounds
  /// and redundant flags as the run advances, which variables differ
  /// from them, and each row's count of differing variables.
  struct ReplayScratch {
    std::vector<double> root_lb, root_ub;
    std::vector<char> root_redundant, var_differs;
    std::vector<int> row_differs;
    std::vector<VarId> differing, synced;
  } replay;
};

/// The root node's presolve, step by step (see the file header). Owned
/// by one tree search and read-only once recorded.
struct PresolveTrace {
  /// One bound of one variable right after it changed.
  struct Bound {
    VarId var;
    bool upper;  ///< the upper bound changed (else the lower)
    double value;
  };

  /// False when nothing was recorded (or the root was infeasible):
  /// presolve_replay then runs presolve_into.
  bool valid = false;
  int rounds = 0;  ///< rounds the root ran
  std::vector<double> lb0, ub0;  ///< the root box (the model's bounds)
  /// Step (round k, row i) is index k * num_constraints + i: its
  /// tightenings are events[step_start[s] .. step_start[s + 1]), and
  /// step_redundant[s] says whether it flagged the row redundant.
  std::vector<int> step_start;
  std::vector<char> step_redundant;
  std::vector<Bound> events;
  /// Binaries round k rounded: roundings[round_start[k] .. round_start[k
  /// + 1]), ascending by variable.
  std::vector<int> round_start;
  std::vector<Bound> roundings;
  /// Variable -> rows holding it (rows of v: var_rows[var_row_start[v]
  /// .. var_row_start[v + 1]), ascending).
  std::vector<int> var_row_start, var_rows;
};

/// Runs presolve on `model` starting from its own bounds or the given
/// overrides (both must have model.num_vars() entries when non-null).
PresolveResult presolve(const Model& model,
                        const std::vector<double>* lb0 = nullptr,
                        const std::vector<double>* ub0 = nullptr);

/// Same, writing into a caller-owned result whose buffers (bounds,
/// redundant-row flags, scratch) are reused across calls. All outputs
/// are reset first (bounds to the input, no redundant rows) and only
/// capacity survives, also when the input bounds already cross.
void presolve_into(const Model& model, const std::vector<double>* lb0,
                   const std::vector<double>* ub0, PresolveResult& result);

/// presolve_into from the model's own bounds that also records its
/// steps into `trace` (replacing its contents).
void presolve_record(const Model& model, PresolveResult& result,
                     PresolveTrace& trace);

/// presolve_into from (lb0, ub0), replaying every step of `trace` whose
/// row sees the root's bounds bit for bit and recomputing the rest. The
/// result is bit-identical to presolve_into's.
void presolve_replay(const Model& model, const PresolveTrace& trace,
                     const std::vector<double>& lb0,
                     const std::vector<double>& ub0, PresolveResult& result);

}  // namespace metaopt::lp
