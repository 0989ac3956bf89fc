// Bounds-kept computational form of a Model's continuous linear
// relaxation, the one form the revised simplex core (lp/revised_simplex.h)
// and the basis factorization (lp/basis.h) work on. The structural
// matrix is stored by columns and, for forms of at least kHyperMinRows
// rows, also by rows (the dual simplex's pivot row over supp(rho)).
#pragma once

#include <vector>

#include "lp/model.h"

namespace metaopt::lp {

/// Rows below which every simplex kernel keeps its dense loop: on small
/// forms a full pass costs little, and the bookkeeping of the sparse
/// paths (nonzero lists, sorts, marks) would not pay for itself. Forms
/// this small also skip the row-wise copy of A. Every B&B node LP of
/// find_te is above it (B4 POP 2,284 rows, Abilene DP 1,596); the
/// prove_grid LPs and the TE direct solves are below.
inline constexpr int kHyperMinRows = 1000;

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

  /// The same block in compressed-sparse-row layout, each row's entries
  /// in ascending column order; empty when num_rows < kHyperMinRows.
  /// A product over the rows in ascending order adds each column's
  /// terms in the order a walk down its CSC column does.
  std::vector<int> row_start;  // size num_rows + 1, or empty
  std::vector<int> row_col;
  std::vector<double> row_val;

  std::vector<double> rhs;       // size num_rows (sign-canonicalized)
  std::vector<bool> row_is_eq;   // size num_rows
  std::vector<ConId> source_con; // size num_rows

  std::vector<double> cost;  // structural costs of the minimized problem
  double cost_offset = 0.0;
  double obj_scale = 1.0;  // -1 when the model maximizes

  [[nodiscard]] int num_cols() const { return num_structs + 2 * num_rows; }
  [[nodiscard]] bool has_rows() const { return !row_start.empty(); }
  [[nodiscard]] int logical_col(int row) const { return num_structs + row; }
  [[nodiscard]] int artificial_col(int row) const {
    return num_structs + num_rows + row;
  }

  /// v' A_j for any column j (logical and artificial columns are +e_i):
  /// rows in ascending (CSC) order, starting from +0.0.
  [[nodiscard]] double col_dot(const std::vector<double>& v, int j) const {
    if (j < num_structs) {
      double acc = 0.0;
      for (int t = col_start[j]; t < col_start[j + 1]; ++t) {
        acc += v[col_row[t]] * col_val[t];
      }
      return acc;
    }
    return v[j < num_structs + num_rows ? j - num_structs
                                        : j - num_structs - num_rows];
  }

  /// The structural part of v' A over the rows listed in `rows`
  /// (ascending, each once; v is zero on every other row), through the
  /// row-wise copy (requires has_rows()). On entry `out` (size
  /// num_structs) is +0.0 and `mark` (same size) is 0 everywhere. On
  /// return `cols` lists the touched columns in ascending order and
  /// out[j] == col_dot(v, j) bit for bit there (rows are added in
  /// col_dot's order; the zero terms col_dot also adds cannot change a
  /// sum that starts at +0.0); out is +0.0 and mark 0 elsewhere. The
  /// caller restores out to +0.0 through `cols`.
  void row_product(const std::vector<double>& v, const std::vector<int>& rows,
                   std::vector<double>& out, std::vector<int>& cols,
                   std::vector<signed char>& mark) const;

  /// Builds the form (bounds intentionally excluded — they are supplied
  /// per solve).
  static BoundedForm build(const Model& model);

  /// Model-space objective value at structural point x (size num_structs).
  [[nodiscard]] double model_objective(const std::vector<double>& x) const;
};

}  // namespace metaopt::lp
