// Test-only reference LP solver: a two-phase dense-tableau primal
// simplex over a bounds-eliminated standard form,
//
//   min  cost' y + cost_offset     s.t.  rows (<= or ==),  y >= 0.
//
// Variable bounds are eliminated: finite lower bounds shift the variable,
// upper-bounded-only variables are negated, free variables are split into
// a positive and a negative part, and fixed variables (lb == ub) are
// substituted out entirely.
//
// The tableau handles LessEqual and Equal rows, negative right-hand
// sides (via row scaling + artificials), degenerate cycling (Dantzig
// pricing with a permanent switch to Bland's rule after a stall),
// infeasibility and unboundedness detection, and optimal dual /
// reduced-cost extraction.
//
// It shares no code with the product engine (lp/revised_simplex.h)
// beyond the Model and Solution types, so differential tests use it as
// an independent oracle — the only one for Infeasible and Unbounded
// verdicts, which check::certify_lp does not certify. Never linked into
// the product.
#pragma once

#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solution.h"

namespace metaopt::testref {

using lp::ConId;
using lp::kInvalidCon;
using lp::Model;
using lp::VarId;

/// One row of the standard form: terms' y (<= | ==) rhs.
struct StdRow {
  std::vector<std::pair<int, double>> terms;
  double rhs = 0.0;
  bool is_eq = false;
  /// Originating model constraint, or kInvalidCon for variable-bound rows.
  ConId source_con = kInvalidCon;
};

/// How one model variable maps into standard-form columns.
struct StdVarMap {
  enum class Kind { Fixed, Shifted, Negated, Split };
  Kind kind = Kind::Shifted;
  int col = -1;      ///< primary column (unused for Fixed)
  int col_neg = -1;  ///< negative part column (Split only)
  double offset = 0.0;     ///< x = y + offset (Shifted), x = offset - y (Negated)
  double fixed_value = 0.0;
};

/// The standard-form program plus the bookkeeping needed to map a
/// standard-form solution back to model variable space.
struct StandardForm {
  int num_cols = 0;
  std::vector<StdRow> rows;
  std::vector<double> cost;    // size num_cols
  double cost_offset = 0.0;
  double obj_scale = 1.0;      // -1 when the model maximizes
  std::vector<StdVarMap> var_map;  // size model.num_vars()

  /// Builds the standard form. `lbs`/`ubs` override the model's variable
  /// bounds when non-null (both must then have size model.num_vars()).
  /// Throws std::invalid_argument if some override has lb > ub.
  static StandardForm build(const Model& model, const double* lbs = nullptr,
                            const double* ubs = nullptr);

  /// Maps a standard-form point y back to model variable values x
  /// (resized to model var count).
  void extract(const std::vector<double>& y, std::vector<double>& x) const;

  /// Model-space objective value at standard-form point y.
  [[nodiscard]] double model_objective(const std::vector<double>& y) const;
};

/// Solves the continuous linear relaxation of `model` with the variable
/// bounds `lb`/`ub` (size model.num_vars()) on the dense tableau. Uses
/// the iteration, time, tolerance and want_duals fields of `options`;
/// never certifies.
[[nodiscard]] lp::Solution solve_tableau(const Model& model,
                                         const std::vector<double>& lb,
                                         const std::vector<double>& ub,
                                         const lp::SimplexOptions& options = {});

/// Same, at the model's own variable bounds.
[[nodiscard]] lp::Solution solve_tableau(const Model& model,
                                         const lp::SimplexOptions& options = {});

}  // namespace metaopt::testref
