#include "lp/presolve.h"

#include "obs/obs.h"
#include "util/tolerances.h"

#include <algorithm>
#include <cmath>

namespace metaopt::lp {

namespace {

const obs::Counter c_runs = obs::counter("presolve.runs");
const obs::Counter c_rounds = obs::counter("presolve.rounds");
const obs::Counter c_tightenings = obs::counter("presolve.tightenings");
const obs::Counter c_vars_fixed = obs::counter("presolve.vars_fixed");
const obs::Counter c_rows_redundant = obs::counter("presolve.rows_redundant");
const obs::Counter c_infeasible = obs::counter("presolve.infeasible");

/// Propagation rounds per call. A cap rather than a fixpoint, because
/// branch-and-bound presolves every node and the node LP finishes
/// whatever propagation leaves.
constexpr int kMaxRounds = 3;

/// Metric accounting on every exit path of presolve(): deltas computed
/// against the entry bounds so "vars_fixed" counts newly pinned boxes.
class PresolveMetrics {
 public:
  explicit PresolveMetrics(const PresolveResult& result) : result_(result) {
    if (!obs::enabled()) return;
    active_ = true;
    fixed_at_entry_ = count_fixed();
    c_runs.inc();
  }

  ~PresolveMetrics() {
    if (!active_) return;
    c_rounds.add(static_cast<std::uint64_t>(result_.rounds));
    c_tightenings.add(static_cast<std::uint64_t>(result_.tightenings));
    const int fixed_now = count_fixed();
    if (fixed_now > fixed_at_entry_) {
      c_vars_fixed.add(static_cast<std::uint64_t>(fixed_now - fixed_at_entry_));
    }
    std::uint64_t redundant = 0;
    for (bool r : result_.redundant_rows) redundant += r ? 1 : 0;
    c_rows_redundant.add(redundant);
    if (result_.infeasible) c_infeasible.inc();
  }

 private:
  [[nodiscard]] int count_fixed() const {
    int fixed = 0;
    for (std::size_t v = 0; v < result_.lb.size(); ++v) {
      if (result_.ub[v] - result_.lb[v] <= tol::kPresolveTol) ++fixed;
    }
    return fixed;
  }

  const PresolveResult& result_;
  bool active_ = false;
  int fixed_at_entry_ = 0;
};

/// Activity contribution range of one term under the current bounds.
inline void term_range(double coef, double lb, double ub, double* lo,
                       double* hi) {
  if (coef >= 0.0) {
    *lo = coef * lb;
    *hi = coef * ub;
  } else {
    *lo = coef * ub;
    *hi = coef * lb;
  }
}

}  // namespace

PresolveResult presolve(const Model& model, const std::vector<double>* lb0,
                        const std::vector<double>* ub0) {
  PresolveResult result;
  presolve_into(model, lb0, ub0, result);
  return result;
}

void presolve_into(const Model& model, const std::vector<double>* lb0,
                   const std::vector<double>* ub0, PresolveResult& result) {
  const int n = model.num_vars();
  result.infeasible = false;
  result.rounds = 0;
  result.tightenings = 0;
  result.lb.resize(n);
  result.ub.resize(n);
  for (VarId v = 0; v < n; ++v) {
    result.lb[v] = lb0 ? (*lb0)[v] : model.var(v).lb;
    result.ub[v] = ub0 ? (*ub0)[v] : model.var(v).ub;
    if (result.lb[v] > result.ub[v] + tol::kPresolveTol) {
      result.infeasible = true;
      return;
    }
  }
  result.redundant_rows.assign(model.num_constraints(), false);

  MO_SPAN("lp.presolve");
  // Counts rounds/tightenings/newly-fixed vars on every exit path below.
  const PresolveMetrics metrics(result);

  std::vector<double>& term_lo = result.scratch_term_lo;
  std::vector<double>& term_hi = result.scratch_term_hi;
  bool changed = true;
  while (changed && result.rounds < kMaxRounds) {
    changed = false;
    ++result.rounds;
    for (ConId ci = 0; ci < model.num_constraints(); ++ci) {
      if (result.redundant_rows[ci]) continue;
      const ConInfo& con = model.constraint(ci);
      const auto& terms = con.lhs.terms();
      if (terms.empty()) {
        const bool ok = con.sense == Sense::LessEqual
                            ? 0.0 <= con.rhs + tol::kPresolveTol
                            : con.sense == Sense::GreaterEqual
                                  ? 0.0 >= con.rhs - tol::kPresolveTol
                                  : std::abs(con.rhs) <= tol::kPresolveTol;
        if (!ok) {
          result.infeasible = true;
          return;
        }
        result.redundant_rows[ci] = true;
        continue;
      }

      // Per-term activity ranges plus finite sums / infinity counters.
      term_lo.resize(terms.size());
      term_hi.resize(terms.size());
      double act_lo = 0.0, act_hi = 0.0;
      int lo_inf = 0, hi_inf = 0;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        term_range(terms[t].second, result.lb[terms[t].first],
                   result.ub[terms[t].first], &term_lo[t], &term_hi[t]);
        if (std::isinf(term_lo[t])) ++lo_inf; else act_lo += term_lo[t];
        if (std::isinf(term_hi[t])) ++hi_inf; else act_hi += term_hi[t];
      }

      const bool needs_le =
          con.sense == Sense::LessEqual || con.sense == Sense::Equal;
      const bool needs_ge =
          con.sense == Sense::GreaterEqual || con.sense == Sense::Equal;
      if (needs_le && lo_inf == 0 && act_lo > con.rhs + tol::kPresolveTol) {
        result.infeasible = true;
        return;
      }
      if (needs_ge && hi_inf == 0 && act_hi < con.rhs - tol::kPresolveTol) {
        result.infeasible = true;
        return;
      }
      if (con.sense == Sense::LessEqual && hi_inf == 0 &&
          act_hi <= con.rhs + tol::kPresolveTol) {
        result.redundant_rows[ci] = true;
        continue;
      }
      if (con.sense == Sense::GreaterEqual && lo_inf == 0 &&
          act_lo >= con.rhs - tol::kPresolveTol) {
        result.redundant_rows[ci] = true;
        continue;
      }

      // Bound tightening via residual activities.
      for (std::size_t t = 0; t < terms.size(); ++t) {
        const VarId v = terms[t].first;
        const double coef = terms[t].second;

        if (needs_le) {
          // Residual min activity of the other terms must be finite.
          const int rest_inf = lo_inf - (std::isinf(term_lo[t]) ? 1 : 0);
          if (rest_inf == 0) {
            const double rest_lo =
                act_lo - (std::isinf(term_lo[t]) ? 0.0 : term_lo[t]);
            const double slack = con.rhs - rest_lo;
            if (coef > 0.0) {
              const double new_ub = slack / coef;
              if (new_ub < result.ub[v] - tol::kFeasTol) {
                result.ub[v] = new_ub;
                ++result.tightenings;
                changed = true;
              }
            } else {
              const double new_lb = slack / coef;
              if (new_lb > result.lb[v] + tol::kFeasTol) {
                result.lb[v] = new_lb;
                ++result.tightenings;
                changed = true;
              }
            }
          }
        }
        if (needs_ge) {
          const int rest_inf = hi_inf - (std::isinf(term_hi[t]) ? 1 : 0);
          if (rest_inf == 0) {
            const double rest_hi =
                act_hi - (std::isinf(term_hi[t]) ? 0.0 : term_hi[t]);
            const double need = con.rhs - rest_hi;
            if (coef > 0.0) {
              const double new_lb = need / coef;
              if (new_lb > result.lb[v] + tol::kFeasTol) {
                result.lb[v] = new_lb;
                ++result.tightenings;
                changed = true;
              }
            } else {
              const double new_ub = need / coef;
              if (new_ub < result.ub[v] - tol::kFeasTol) {
                result.ub[v] = new_ub;
                ++result.tightenings;
                changed = true;
              }
            }
          }
        }
        if (result.lb[v] > result.ub[v] + tol::kPresolveTol) {
          result.infeasible = true;
          return;
        }
      }
    }

    for (VarId v = 0; v < n; ++v) {
      if (model.var(v).kind != VarKind::Binary) continue;
      if (result.lb[v] > tol::kPresolveTol && result.lb[v] < 1.0) {
        result.lb[v] = 1.0;
        changed = true;
      }
      if (result.ub[v] < 1.0 - tol::kPresolveTol && result.ub[v] > 0.0) {
        result.ub[v] = 0.0;
        changed = true;
      }
      if (result.lb[v] > result.ub[v] + tol::kPresolveTol) {
        result.infeasible = true;
        return;
      }
    }
  }
}

}  // namespace metaopt::lp
