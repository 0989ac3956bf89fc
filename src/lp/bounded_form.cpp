#include "lp/bounded_form.h"

#include <algorithm>

namespace metaopt::lp {

BoundedForm BoundedForm::build(const Model& model) {
  const int n = model.num_vars();
  const int m = model.num_constraints();
  BoundedForm bf;
  bf.num_structs = n;
  bf.num_rows = m;
  bf.obj_scale = model.objective_sense() == ObjSense::Maximize ? -1.0 : 1.0;

  bf.cost.assign(n, 0.0);
  bf.cost_offset = bf.obj_scale * model.objective().constant();
  for (const auto& [v, coef] : model.objective().terms()) {
    bf.cost[v] += bf.obj_scale * coef;
  }

  // Gather terms row-major first, then transpose into CSC.
  bf.rhs.resize(m);
  bf.row_is_eq.resize(m);
  bf.source_con.resize(m);
  std::vector<int> col_count(n, 0);
  for (ConId ci = 0; ci < m; ++ci) {
    const ConInfo& con = model.constraint(ci);
    bf.row_is_eq[ci] = con.sense == Sense::Equal;
    bf.source_con[ci] = ci;
    const double sign = con.sense == Sense::GreaterEqual ? -1.0 : 1.0;
    bf.rhs[ci] = sign * con.rhs;
    for (const auto& [v, coef] : con.lhs.terms()) {
      (void)coef;
      ++col_count[v];
    }
  }
  bf.col_start.assign(n + 1, 0);
  for (int j = 0; j < n; ++j) bf.col_start[j + 1] = bf.col_start[j] + col_count[j];
  bf.col_row.resize(bf.col_start[n]);
  bf.col_val.resize(bf.col_start[n]);
  std::vector<int> fill(bf.col_start.begin(), bf.col_start.end() - 1);
  for (ConId ci = 0; ci < m; ++ci) {
    const ConInfo& con = model.constraint(ci);
    const double sign = con.sense == Sense::GreaterEqual ? -1.0 : 1.0;
    for (const auto& [v, coef] : con.lhs.terms()) {
      bf.col_row[fill[v]] = ci;
      bf.col_val[fill[v]] = sign * coef;
      ++fill[v];
    }
  }

  if (m >= kHyperMinRows) {
    // Transpose the CSC block; walking columns in ascending order fills
    // each row in ascending column order.
    bf.row_start.assign(m + 1, 0);
    for (const int row : bf.col_row) ++bf.row_start[row + 1];
    for (int i = 0; i < m; ++i) bf.row_start[i + 1] += bf.row_start[i];
    bf.row_col.resize(bf.col_row.size());
    bf.row_val.resize(bf.col_row.size());
    std::vector<int> next(bf.row_start.begin(), bf.row_start.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int t = bf.col_start[j]; t < bf.col_start[j + 1]; ++t) {
        const int at = next[bf.col_row[t]]++;
        bf.row_col[at] = j;
        bf.row_val[at] = bf.col_val[t];
      }
    }
  }
  return bf;
}

void BoundedForm::row_product(const std::vector<double>& v,
                              const std::vector<int>& rows,
                              std::vector<double>& out, std::vector<int>& cols,
                              std::vector<signed char>& mark) const {
  cols.clear();
  for (const int i : rows) {
    const double vi = v[i];
    for (int t = row_start[i]; t < row_start[i + 1]; ++t) {
      const int j = row_col[t];
      if (mark[j] == 0) {
        mark[j] = 1;
        cols.push_back(j);
      }
      out[j] += vi * row_val[t];
    }
  }
  std::sort(cols.begin(), cols.end());
  for (const int j : cols) mark[j] = 0;
}

double BoundedForm::model_objective(const std::vector<double>& x) const {
  double internal = cost_offset;
  for (int j = 0; j < num_structs; ++j) internal += cost[j] * x[j];
  return obj_scale * internal;  // obj_scale is +-1, its own inverse
}

}  // namespace metaopt::lp
