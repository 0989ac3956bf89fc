#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "check/certify.h"
#include "lp/revised_simplex.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace metaopt::lp {

namespace {

// Hot-loop instrumentation: one relaxed-atomic branch each while
// observability is off (obs::enabled() == false). simplex.solves and the
// simplex.solve span/histogram count each public SimplexSolver call once,
// whichever rung of the fallback ladder answers it.
const obs::Counter c_solves = obs::counter("simplex.solves");
const obs::Counter c_pivots = obs::counter("simplex.pivots");
const obs::Counter c_degenerate = obs::counter("simplex.degenerate_pivots");
const obs::Counter c_bland = obs::counter("simplex.bland_switches");
const obs::Counter c_phase1 = obs::counter("simplex.phase1_solves");
const obs::Counter c_warm_solves = obs::counter("simplex.warm_solves");
const obs::Counter c_warm_fallbacks = obs::counter("simplex.warm_fallbacks");
const obs::Counter c_cold_revised = obs::counter("simplex.cold_revised_solves");
const obs::Counter c_tableau_fallbacks =
    obs::counter("simplex.tableau_fallbacks");
const obs::Histogram h_solve_ns = obs::histogram("simplex.solve_ns");

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
      c_phase1.inc();
      const SolveStatus st =
          iterate(/*phase1=*/true, &iters, watch);
      if (st != SolveStatus::Optimal) {
        *iterations_out = iters;
        return st;
      }
      if (phase1_objective() > opt_.feas_tol) {
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
        if (std::abs(row[j]) > opt_.pivot_tol) {
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
          if (costs[j] < -opt_.cost_tol) {
            enter = j;
            break;
          }
        }
      } else {
        double best = -opt_.cost_tol;
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
        if (a <= opt_.pivot_tol) continue;
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
        c_degenerate.inc();
        if (++degenerate_streak > opt_.stall_limit && !bland) {
          bland = true;
          c_bland.inc();
        }
      } else {
        degenerate_streak = 0;
      }
      c_pivots.inc();
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

}  // namespace

Solution SimplexSolver::solve(const Model& model) const {
  MO_SPAN_HIST("simplex.solve", h_solve_ns);
  c_solves.inc();
  Solution sol = solve_standard(StandardForm::build(model), model);
  maybe_certify(model, sol, nullptr, nullptr);
  return sol;
}

Solution SimplexSolver::solve_with_bounds(const Model& model,
                                          const std::vector<double>& lb,
                                          const std::vector<double>& ub) const {
  MO_SPAN_HIST("simplex.solve", h_solve_ns);
  c_solves.inc();
  return solve_tableau(model, lb, ub);
}

Solution SimplexSolver::solve_with_bounds(const Model& model,
                                          const std::vector<double>& lb,
                                          const std::vector<double>& ub,
                                          WarmStartContext& warm) const {
  MO_SPAN_HIST("simplex.solve", h_solve_ns);
  c_solves.inc();
  warm.set_result(nullptr);
  bool accepted = false;
  if (warm.hint != nullptr) {
    Solution sol = solve_revised(model, lb, ub, warm, /*use_hint=*/true,
                                 &accepted);
    if (accepted) {
      warm.last_path = WarmStartContext::Path::WarmDual;
      c_warm_solves.inc();
      return sol;
    }
    c_warm_fallbacks.inc();
  }
  {
    Solution sol = solve_revised(model, lb, ub, warm, /*use_hint=*/false,
                                 &accepted);
    if (accepted) {
      warm.last_path = WarmStartContext::Path::ColdRevised;
      c_cold_revised.inc();
      return sol;
    }
  }
  warm.last_path = WarmStartContext::Path::Tableau;
  c_tableau_fallbacks.inc();
  return solve_tableau(model, lb, ub);
}

Solution SimplexSolver::solve_tableau(const Model& model,
                                      const std::vector<double>& lb,
                                      const std::vector<double>& ub) const {
  Solution sol = solve_standard(StandardForm::build(model, lb.data(), ub.data()),
                                model);
  maybe_certify(model, sol, &lb, &ub);
  return sol;
}

Solution SimplexSolver::solve_revised(const Model& model,
                                      const std::vector<double>& lb,
                                      const std::vector<double>& ub,
                                      WarmStartContext& warm, bool use_hint,
                                      bool* accepted) const {
  *accepted = false;
  util::Stopwatch watch;
  RevisedSimplex& engine = warm.engine;
  Solution sol;
  long iters = 0;
  sol.status = use_hint
                   ? engine.solve_warm(options_, lb, ub, *warm.hint, &iters)
                   : engine.solve_cold(options_, lb, ub, &iters);
  sol.iterations = iters;
  sol.solve_seconds = watch.seconds();
  switch (sol.status) {
    case SolveStatus::Error:
    case SolveStatus::IterationLimit:
    case SolveStatus::Feasible:  // never produced by the revised core
      // Not trustworthy (or not terminal): drop to the next rung.
      return sol;
    case SolveStatus::TimeLimit:
      // Retrying on a slower rung would double-spend an exhausted
      // budget; report honestly instead.
      *accepted = true;
      return sol;
    case SolveStatus::Infeasible:
      *accepted = true;
      return sol;
    case SolveStatus::Unbounded:
      engine.primal_values(sol.values);
      sol.objective = engine.model_objective();
      sol.best_bound = sol.objective;
      *accepted = true;
      return sol;
    case SolveStatus::Optimal:
      break;
  }
  engine.primal_values(sol.values);
  sol.objective = engine.model_objective();
  sol.best_bound = sol.objective;
  if (options_.want_duals) {
    engine.extract_duals(model, sol.duals, sol.reduced_costs);
  }
  maybe_certify(model, sol, &lb, &ub);
  if (options_.certify && !sol.certified) {
    // The independent certifier rejected this rung's optimum; fall back
    // rather than propagate a dubious answer (maybe_certify logged it).
    return sol;
  }
  auto basis = std::make_shared<Basis>();
  engine.export_basis(*basis);
  warm.set_result(std::move(basis));
  *accepted = true;
  return sol;
}

void SimplexSolver::maybe_certify(const Model& model, Solution& sol,
                                  const std::vector<double>* lb,
                                  const std::vector<double>* ub) const {
  if (!options_.certify || sol.status != SolveStatus::Optimal) return;
  const check::Certificate cert = check::certify_lp(
      model, sol, check::CertifyOptions::for_lp(options_), lb, ub);
  sol.certified = cert.ok;
  if (!cert.ok) {
    MO_LOG(Error) << "LP certification FAILED: " << cert.to_string();
  }
}

Solution SimplexSolver::solve_standard(const StandardForm& sf,
                                       const Model& model) const {
  util::Stopwatch watch;
  Solution sol;

  // Degenerate corner: no columns at all (every variable fixed).
  Tableau tableau(sf, options_);
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

  if (options_.want_duals) {
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

}  // namespace metaopt::lp
