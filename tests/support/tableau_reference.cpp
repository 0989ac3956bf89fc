#include "tableau_reference.h"

#include <cmath>
#include <stdexcept>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/tolerances.h"

namespace metaopt::testref {

using lp::ConInfo;
using lp::ObjSense;
using lp::Sense;
using lp::SimplexOptions;
using lp::SolveStatus;

namespace {

constexpr double kFixTol = tol::kFixTol;

/// Dense tableau state for one solve.
class Tableau {
 public:
  Tableau(const StandardForm& sf, const SimplexOptions& opt) : opt_(opt) {
    const int m = static_cast<int>(sf.rows.size());
    n_struct_ = sf.num_cols;

    // Column layout: [structural | slacks | artificials]; rhs is the last
    // entry of each stored row.
    int n_slack = 0;
    for (const StdRow& row : sf.rows) {
      if (!row.is_eq) ++n_slack;
    }
    slack_col_.assign(m, -1);
    art_col_.assign(m, -1);
    row_flipped_.assign(m, false);

    // First pass: decide columns.
    int next = n_struct_;
    for (int i = 0; i < m; ++i) {
      if (!sf.rows[i].is_eq) slack_col_[i] = next++;
    }
    const int first_art = next;
    for (int i = 0; i < m; ++i) {
      const bool flipped = sf.rows[i].rhs < 0.0;
      // A non-flipped LE row's slack (+1) can start basic; everything
      // else needs an artificial.
      if (sf.rows[i].is_eq || flipped) art_col_[i] = next++;
    }
    n_total_ = next;
    width_ = n_total_ + 1;
    first_art_ = first_art;

    tab_.assign(static_cast<std::size_t>(m) * width_, 0.0);
    basis_.assign(m, -1);
    row_active_.assign(m, true);
    m_ = m;

    for (int i = 0; i < m; ++i) {
      double* row = row_ptr(i);
      const StdRow& src = sf.rows[i];
      const double sign = src.rhs < 0.0 ? -1.0 : 1.0;
      row_flipped_[i] = sign < 0.0;
      for (const auto& [col, coef] : src.terms) row[col] += sign * coef;
      if (slack_col_[i] >= 0) row[slack_col_[i]] = sign;
      row[n_total_] = sign * src.rhs;
      if (art_col_[i] >= 0) {
        row[art_col_[i]] = 1.0;
        basis_[i] = art_col_[i];
      } else {
        basis_[i] = slack_col_[i];
      }
    }

    // Phase-2 reduced costs: initial basics all have zero cost, so the
    // reduced-cost row starts as the raw cost vector.
    cost2_.assign(width_, 0.0);
    for (int j = 0; j < n_struct_; ++j) cost2_[j] = sf.cost[j];

    // Phase-1 reduced costs: minimize the sum of artificials. With
    // artificials basic, r_j = -sum over artificial rows of T[i][j].
    cost1_.assign(width_, 0.0);
    for (int i = 0; i < m; ++i) {
      if (art_col_[i] < 0) continue;
      const double* row = row_ptr(i);
      for (int j = 0; j < width_; ++j) cost1_[j] -= row[j];
      // Leave the artificial's own reduced cost at zero (c_j = 1).
      cost1_[art_col_[i]] += 1.0;
    }
    has_artificials_ = first_art_ < n_total_;
  }

  /// Runs both phases. Returns the terminal status.
  SolveStatus run(long* iterations_out) {
    long iters = 0;
    util::Stopwatch watch;
    if (has_artificials_) {
      const SolveStatus st =
          iterate(/*phase1=*/true, &iters, watch);
      if (st != SolveStatus::Optimal) {
        *iterations_out = iters;
        return st;
      }
      if (phase1_objective() > tol::kFeasTol) {
        *iterations_out = iters;
        return SolveStatus::Infeasible;
      }
      purge_artificials();
    }
    const SolveStatus st = iterate(/*phase1=*/false, &iters, watch);
    *iterations_out = iters;
    return st;
  }

  /// Basic solution in standard-form column space (structural part).
  void primal(std::vector<double>& y) const {
    y.assign(n_struct_, 0.0);
    for (int i = 0; i < m_; ++i) {
      if (row_active_[i] && basis_[i] >= 0 && basis_[i] < n_struct_) {
        y[basis_[i]] = row_ptr_const(i)[n_total_];
      }
    }
  }

  /// Final phase-2 reduced cost of column j (0 <= j < n_total_).
  [[nodiscard]] double reduced_cost(int j) const { return cost2_[j]; }

  [[nodiscard]] int slack_col(int row) const { return slack_col_[row]; }
  [[nodiscard]] int art_col(int row) const { return art_col_[row]; }
  [[nodiscard]] bool row_flipped(int row) const { return row_flipped_[row]; }

 private:
  double* row_ptr(int i) { return tab_.data() + static_cast<std::size_t>(i) * width_; }
  const double* row_ptr_const(int i) const {
    return tab_.data() + static_cast<std::size_t>(i) * width_;
  }

  [[nodiscard]] double phase1_objective() const {
    double z = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (row_active_[i] && basis_[i] >= first_art_) {
        z += row_ptr_const(i)[n_total_];
      }
    }
    return z;
  }

  /// After phase 1: pivot artificials out of the basis (or deactivate
  /// redundant rows) so phase 2 never moves them again.
  void purge_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (!row_active_[i] || basis_[i] < first_art_) continue;
      const double* row = row_ptr_const(i);
      int pivot_j = -1;
      for (int j = 0; j < first_art_; ++j) {
        if (std::abs(row[j]) > tol::kPivotTol) {
          pivot_j = j;
          break;
        }
      }
      if (pivot_j >= 0) {
        pivot(i, pivot_j);
      } else {
        // Redundant row: every structural/slack coefficient is ~0 and
        // (post phase 1) so is the rhs. Drop it.
        row_active_[i] = false;
      }
    }
  }

  /// Core simplex loop for one phase.
  SolveStatus iterate(bool phase1, long* iters, const util::Stopwatch& watch) {
    std::vector<double>& costs = phase1 ? cost1_ : cost2_;
    long degenerate_streak = 0;
    bool bland = false;
    while (true) {
      if (*iters >= opt_.max_iterations) return SolveStatus::IterationLimit;
      if ((*iters & 63) == 0 && watch.seconds() > opt_.time_limit_seconds) {
        return SolveStatus::TimeLimit;
      }
      ++*iters;

      // Entering column. Artificials never re-enter.
      const int enter_limit = phase1 ? n_total_ : first_art_;
      int enter = -1;
      if (bland) {
        for (int j = 0; j < enter_limit; ++j) {
          if (j >= first_art_) continue;
          if (costs[j] < -tol::kCostTol) {
            enter = j;
            break;
          }
        }
      } else {
        double best = -tol::kCostTol;
        for (int j = 0; j < enter_limit; ++j) {
          if (j >= first_art_) continue;
          if (costs[j] < best) {
            best = costs[j];
            enter = j;
          }
        }
      }
      if (enter < 0) return SolveStatus::Optimal;

      // Ratio test.
      int leave = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (!row_active_[i]) continue;
        const double* row = row_ptr_const(i);
        const double a = row[enter];
        if (a <= tol::kPivotTol) continue;
        const double ratio = row[n_total_] / a;
        const bool better =
            leave < 0 || ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 &&
             // tie-break: kick artificials out first, else Bland-style
             // smallest basis column for anti-cycling robustness
             ((basis_[i] >= first_art_ && basis_[leave] < first_art_) ||
              (((basis_[i] >= first_art_) == (basis_[leave] >= first_art_)) &&
               basis_[i] < basis_[leave])));
        if (better) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave < 0) {
        // No blocking row: in phase 1 the objective is bounded below by
        // 0 so this cannot happen with exact arithmetic; treat as error.
        return phase1 ? SolveStatus::Error : SolveStatus::Unbounded;
      }

      if (best_ratio <= 1e-12) {
        if (++degenerate_streak > opt_.stall_limit && !bland) {
          bland = true;
        }
      } else {
        degenerate_streak = 0;
      }
      pivot(leave, enter);
    }
  }

  /// Gauss-Jordan pivot on (row i*, column j*): updates tableau and both
  /// reduced-cost rows.
  void pivot(int pr, int pc) {
    double* prow = row_ptr(pr);
    const double inv = 1.0 / prow[pc];
    for (int j = 0; j < width_; ++j) prow[j] *= inv;
    prow[pc] = 1.0;  // exact

    for (int i = 0; i < m_; ++i) {
      if (i == pr || !row_active_[i]) continue;
      double* row = row_ptr(i);
      const double factor = row[pc];
      if (factor == 0.0) continue;
      for (int j = 0; j < width_; ++j) row[j] -= factor * prow[j];
      row[pc] = 0.0;  // exact
    }
    for (std::vector<double>* costs : {&cost1_, &cost2_}) {
      const double factor = (*costs)[pc];
      if (factor == 0.0) continue;
      for (int j = 0; j < width_; ++j) (*costs)[j] -= factor * prow[j];
      (*costs)[pc] = 0.0;
    }
    basis_[pr] = pc;
  }

  const SimplexOptions& opt_;
  std::vector<double> tab_;
  std::vector<double> cost1_, cost2_;
  std::vector<int> basis_;
  std::vector<int> slack_col_, art_col_;
  std::vector<bool> row_active_;
  std::vector<bool> row_flipped_;
  int m_ = 0;
  int n_struct_ = 0;
  int n_total_ = 0;
  int first_art_ = 0;
  int width_ = 0;
  bool has_artificials_ = false;
};

lp::Solution solve_standard(const StandardForm& sf, const Model& model,
                           const lp::SimplexOptions& options) {
  util::Stopwatch watch;
  lp::Solution sol;

  // Degenerate corner: no columns at all (every variable fixed).
  Tableau tableau(sf, options);
  sol.status = tableau.run(&sol.iterations);
  sol.solve_seconds = watch.seconds();

  if (sol.status == SolveStatus::Error) {
    MO_LOG(Error) << "simplex internal error (phase-1 unbounded?)";
    return sol;
  }
  if (sol.status != SolveStatus::Optimal &&
      sol.status != SolveStatus::Unbounded) {
    return sol;
  }

  std::vector<double> y;
  tableau.primal(y);
  sf.extract(y, sol.values);
  sol.objective = sf.model_objective(y);
  sol.best_bound = sol.objective;
  if (sol.status != SolveStatus::Optimal) return sol;

  if (options.want_duals) {
    // Multipliers of the *internally minimized* problem; see Solution
    // docs. For a LessEqual/GreaterEqual model row the multiplier is the
    // final reduced cost of that row's slack column; for an Equal row it
    // is -sigma * (reduced cost of the row's artificial column) where
    // sigma records the rhs sign flip.
    sol.duals.assign(model.num_constraints(), 0.0);
    for (std::size_t r = 0; r < sf.rows.size(); ++r) {
      const ConId con = sf.rows[r].source_con;
      if (con == kInvalidCon) continue;
      const int row = static_cast<int>(r);
      if (!sf.rows[r].is_eq) {
        const int sc = tableau.slack_col(row);
        if (sc >= 0) sol.duals[con] = tableau.reduced_cost(sc);
      } else {
        const int ac = tableau.art_col(row);
        if (ac >= 0) {
          const double sigma = tableau.row_flipped(row) ? -1.0 : 1.0;
          sol.duals[con] = -sigma * tableau.reduced_cost(ac);
        }
      }
    }
    sol.reduced_costs.assign(model.num_vars(), 0.0);
    for (VarId v = 0; v < model.num_vars(); ++v) {
      const StdVarMap& m = sf.var_map[v];
      switch (m.kind) {
        case StdVarMap::Kind::Fixed: break;
        case StdVarMap::Kind::Shifted:
          sol.reduced_costs[v] = tableau.reduced_cost(m.col);
          break;
        case StdVarMap::Kind::Negated:
          sol.reduced_costs[v] = -tableau.reduced_cost(m.col);
          break;
        case StdVarMap::Kind::Split:
          sol.reduced_costs[v] = tableau.reduced_cost(m.col);
          break;
      }
    }
  }
  return sol;
}

}  // namespace

StandardForm StandardForm::build(const Model& model, const double* lbs,
                                 const double* ubs) {
  const int n = model.num_vars();
  StandardForm sf;
  sf.var_map.resize(n);
  sf.obj_scale = model.objective_sense() == ObjSense::Maximize ? -1.0 : 1.0;

  // Decide per-variable column mapping.
  for (VarId v = 0; v < n; ++v) {
    const double lb = lbs ? lbs[v] : model.var(v).lb;
    const double ub = ubs ? ubs[v] : model.var(v).ub;
    if (lb > ub + kFixTol) {
      throw std::invalid_argument("StandardForm: lb > ub for " +
                                  model.var(v).name);
    }
    StdVarMap& m = sf.var_map[v];
    if (std::isfinite(lb) && std::isfinite(ub) && ub - lb <= kFixTol) {
      m.kind = StdVarMap::Kind::Fixed;
      m.fixed_value = lb;
    } else if (std::isfinite(lb)) {
      m.kind = StdVarMap::Kind::Shifted;
      m.col = sf.num_cols++;
      m.offset = lb;
      if (std::isfinite(ub)) {
        StdRow row;
        row.terms.emplace_back(m.col, 1.0);
        row.rhs = ub - lb;
        sf.rows.push_back(std::move(row));
      }
    } else if (std::isfinite(ub)) {
      m.kind = StdVarMap::Kind::Negated;
      m.col = sf.num_cols++;
      m.offset = ub;  // x = ub - y
    } else {
      m.kind = StdVarMap::Kind::Split;
      m.col = sf.num_cols++;
      m.col_neg = sf.num_cols++;
    }
  }

  // Objective.
  sf.cost.assign(sf.num_cols, 0.0);
  sf.cost_offset = sf.obj_scale * model.objective().constant();
  for (const auto& [v, coef0] : model.objective().terms()) {
    const double coef = sf.obj_scale * coef0;
    const StdVarMap& m = sf.var_map[v];
    switch (m.kind) {
      case StdVarMap::Kind::Fixed:
        sf.cost_offset += coef * m.fixed_value;
        break;
      case StdVarMap::Kind::Shifted:
        sf.cost[m.col] += coef;
        sf.cost_offset += coef * m.offset;
        break;
      case StdVarMap::Kind::Negated:
        sf.cost[m.col] -= coef;
        sf.cost_offset += coef * m.offset;
        break;
      case StdVarMap::Kind::Split:
        sf.cost[m.col] += coef;
        sf.cost[m.col_neg] -= coef;
        break;
    }
  }

  // Constraints. GreaterEqual rows are negated into LessEqual.
  for (ConId ci = 0; ci < model.num_constraints(); ++ci) {
    const ConInfo& con = model.constraint(ci);
    const double sign = con.sense == Sense::GreaterEqual ? -1.0 : 1.0;
    StdRow row;
    row.source_con = ci;
    row.is_eq = con.sense == Sense::Equal;
    row.rhs = sign * con.rhs;
    for (const auto& [v, coef0] : con.lhs.terms()) {
      const double coef = sign * coef0;
      const StdVarMap& m = sf.var_map[v];
      switch (m.kind) {
        case StdVarMap::Kind::Fixed:
          row.rhs -= coef * m.fixed_value;
          break;
        case StdVarMap::Kind::Shifted:
          row.terms.emplace_back(m.col, coef);
          row.rhs -= coef * m.offset;
          break;
        case StdVarMap::Kind::Negated:
          row.terms.emplace_back(m.col, -coef);
          row.rhs -= coef * m.offset;
          break;
        case StdVarMap::Kind::Split:
          row.terms.emplace_back(m.col, coef);
          row.terms.emplace_back(m.col_neg, -coef);
          break;
      }
    }
    sf.rows.push_back(std::move(row));
  }
  return sf;
}

void StandardForm::extract(const std::vector<double>& y,
                           std::vector<double>& x) const {
  x.assign(var_map.size(), 0.0);
  for (std::size_t v = 0; v < var_map.size(); ++v) {
    const StdVarMap& m = var_map[v];
    switch (m.kind) {
      case StdVarMap::Kind::Fixed: x[v] = m.fixed_value; break;
      case StdVarMap::Kind::Shifted: x[v] = y[m.col] + m.offset; break;
      case StdVarMap::Kind::Negated: x[v] = m.offset - y[m.col]; break;
      case StdVarMap::Kind::Split: x[v] = y[m.col] - y[m.col_neg]; break;
    }
  }
}

double StandardForm::model_objective(const std::vector<double>& y) const {
  double internal = cost_offset;
  for (int j = 0; j < num_cols; ++j) internal += cost[j] * y[j];
  return obj_scale * internal;  // obj_scale is +-1, its own inverse
}

lp::Solution solve_tableau(const Model& model, const std::vector<double>& lb,
                           const std::vector<double>& ub,
                           const SimplexOptions& options) {
  return solve_standard(StandardForm::build(model, lb.data(), ub.data()),
                        model, options);
}

lp::Solution solve_tableau(const Model& model, const SimplexOptions& options) {
  return solve_standard(StandardForm::build(model), model, options);
}

}  // namespace metaopt::testref
