// Bounds-kept computational form of a Model's continuous linear
// relaxation, the one form the revised simplex core (lp/revised_simplex.h)
// and the basis factorization (lp/basis.h) work on.
#pragma once

#include <vector>

#include "lp/model.h"

namespace metaopt::lp {

/// Bounds-kept computational form for the revised simplex:
///
///   min  cost' x + cost_offset   s.t.  A x + s = rhs,  cl <= (x, s, a) <= cu
///
/// Variable bounds are NOT baked into the matrix:
/// every model variable keeps exactly one column whose bounds change per
/// solve (free variables stay free, fixed variables become cl == cu
/// columns instead of being substituted away). That makes the structure
/// invariant under branch-and-bound bound tightenings, so one build
/// serves a whole search tree and a parent-optimal basis remains
/// structurally valid — and dual-feasible — for every child node.
///
/// Column layout: [0, num_structs) structural (VarId order), then one
/// logical column +e_i per row (slack of a canonicalized <= row, or a
/// cl == cu == 0 column for an == row), then one artificial column +e_i
/// per row (cl == cu == 0 except during the cold solve's phase 1).
/// GreaterEqual rows are negated into LessEqual.
struct BoundedForm {
  int num_structs = 0;  ///< == model.num_vars()
  int num_rows = 0;

  /// Structural block in compressed-sparse-column layout; logical and
  /// artificial columns are implicit +e_i and never stored.
  std::vector<int> col_start;  // size num_structs + 1
  std::vector<int> col_row;
  std::vector<double> col_val;

  std::vector<double> rhs;       // size num_rows (sign-canonicalized)
  std::vector<bool> row_is_eq;   // size num_rows
  std::vector<ConId> source_con; // size num_rows

  std::vector<double> cost;  // structural costs of the minimized problem
  double cost_offset = 0.0;
  double obj_scale = 1.0;  // -1 when the model maximizes

  [[nodiscard]] int num_cols() const { return num_structs + 2 * num_rows; }
  [[nodiscard]] int logical_col(int row) const { return num_structs + row; }
  [[nodiscard]] int artificial_col(int row) const {
    return num_structs + num_rows + row;
  }

  /// Builds the form (bounds intentionally excluded — they are supplied
  /// per solve). Throws std::invalid_argument on quadratic objectives.
  static BoundedForm build(const Model& model);

  /// Model-space objective value at structural point x (size num_structs).
  [[nodiscard]] double model_objective(const std::vector<double>& x) const;
};

}  // namespace metaopt::lp
