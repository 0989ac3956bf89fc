#include "lp/presolve.h"

#include "obs/obs.h"
#include "util/tolerances.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Outcome of one row of a propagation round.
enum class RowResult { Kept, Redundant, Infeasible };

/// One row of a round against result.lb/ub: the infeasibility and
/// redundancy tests, then the tightenings through residual activities,
/// applied in place (counted in result.tightenings, with `*changed`
/// set). `tightened(v, upper)` runs after each tightening of v's upper
/// (or lower) bound.
template <class OnTighten>
RowResult propagate_row(const ConInfo& con, PresolveResult& result,
                        bool* changed, OnTighten&& tightened) {
  const auto& terms = con.lhs.terms();
  if (terms.empty()) {
    const bool ok = con.sense == Sense::LessEqual
                        ? 0.0 <= con.rhs + tol::kPresolveTol
                        : con.sense == Sense::GreaterEqual
                              ? 0.0 >= con.rhs - tol::kPresolveTol
                              : std::abs(con.rhs) <= tol::kPresolveTol;
    return ok ? RowResult::Redundant : RowResult::Infeasible;
  }

  // Per-term activity ranges plus finite sums / infinity counters.
  std::vector<double>& term_lo = result.scratch_term_lo;
  std::vector<double>& term_hi = result.scratch_term_hi;
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
    return RowResult::Infeasible;
  }
  if (needs_ge && hi_inf == 0 && act_hi < con.rhs - tol::kPresolveTol) {
    return RowResult::Infeasible;
  }
  if (con.sense == Sense::LessEqual && hi_inf == 0 &&
      act_hi <= con.rhs + tol::kPresolveTol) {
    return RowResult::Redundant;
  }
  if (con.sense == Sense::GreaterEqual && lo_inf == 0 &&
      act_lo >= con.rhs - tol::kPresolveTol) {
    return RowResult::Redundant;
  }

  // Bound tightening via residual activities.
  const auto tighten_ub = [&](VarId v, double new_ub) {
    if (new_ub < result.ub[v] - tol::kFeasTol) {
      result.ub[v] = new_ub;
      ++result.tightenings;
      *changed = true;
      tightened(v, true);
    }
  };
  const auto tighten_lb = [&](VarId v, double new_lb) {
    if (new_lb > result.lb[v] + tol::kFeasTol) {
      result.lb[v] = new_lb;
      ++result.tightenings;
      *changed = true;
      tightened(v, false);
    }
  };
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
          tighten_ub(v, slack / coef);
        } else {
          tighten_lb(v, slack / coef);
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
          tighten_lb(v, need / coef);
        } else {
          tighten_ub(v, need / coef);
        }
      }
    }
    if (result.lb[v] > result.ub[v] + tol::kPresolveTol) {
      return RowResult::Infeasible;
    }
  }
  return RowResult::Kept;
}

/// Rounds a binary's tightened bounds to exact integers. Returns false
/// when they cross; `*rounded` says whether a bound moved.
bool round_binary(VarId v, PresolveResult& result, bool* rounded) {
  *rounded = false;
  if (result.lb[v] > tol::kPresolveTol && result.lb[v] < 1.0) {
    result.lb[v] = 1.0;
    *rounded = true;
  }
  if (result.ub[v] < 1.0 - tol::kPresolveTol && result.ub[v] > 0.0) {
    result.ub[v] = 0.0;
    *rounded = true;
  }
  return result.lb[v] <= result.ub[v] + tol::kPresolveTol;
}

/// Starts a run: bounds from the overrides (or the model), no redundant
/// rows, no rounds. Returns false, with result.infeasible set, when
/// some variable's bounds already cross.
bool start_run(const Model& model, const std::vector<double>* lb0,
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
  }
  result.redundant_rows.assign(model.num_constraints(), false);
  for (VarId v = 0; v < n; ++v) {
    if (result.lb[v] > result.ub[v] + tol::kPresolveTol) {
      result.infeasible = true;
      return false;
    }
  }
  return true;
}

/// One full propagation round over every row, then the binary rounding,
/// recording each step into `trace` when it is non-null. Returns false
/// (result.infeasible set) on an infeasible row or binary.
bool full_round(const Model& model, PresolveResult& result, bool* changed,
                PresolveTrace* trace) {
  using Bound = PresolveTrace::Bound;
  const int m = model.num_constraints();
  for (ConId ci = 0; ci < m; ++ci) {
    if (trace != nullptr) {
      trace->step_start.push_back(static_cast<int>(trace->events.size()));
      trace->step_redundant.push_back(0);
    }
    if (result.redundant_rows[ci]) continue;
    const RowResult row =
        propagate_row(model.constraint(ci), result, changed,
                      [&](VarId v, bool upper) {
                        if (trace != nullptr) {
                          trace->events.push_back(Bound{
                              v, upper, upper ? result.ub[v] : result.lb[v]});
                        }
                      });
    if (row == RowResult::Infeasible) {
      result.infeasible = true;
      return false;
    }
    if (row == RowResult::Redundant) {
      result.redundant_rows[ci] = true;
      if (trace != nullptr) trace->step_redundant.back() = 1;
    }
  }
  if (trace != nullptr) {
    trace->round_start.push_back(static_cast<int>(trace->roundings.size()));
  }
  for (VarId v = 0; v < model.num_vars(); ++v) {
    if (model.var(v).kind != VarKind::Binary) continue;
    const double lb = result.lb[v];
    bool rounded = false;
    if (!round_binary(v, result, &rounded)) {
      result.infeasible = true;
      return false;
    }
    if (!rounded) continue;
    *changed = true;
    if (trace != nullptr) {
      const bool upper = same_bits(lb, result.lb[v]);
      trace->roundings.push_back(
          Bound{v, upper, upper ? result.ub[v] : result.lb[v]});
    }
  }
  return true;
}

/// presolve_into, recording every step into `trace` when non-null.
void run_presolve(const Model& model, const std::vector<double>* lb0,
                  const std::vector<double>* ub0, PresolveResult& result,
                  PresolveTrace* trace) {
  if (!start_run(model, lb0, ub0, result)) return;

  MO_SPAN("lp.presolve");
  // Counts rounds/tightenings/newly-fixed vars on every exit path below.
  const PresolveMetrics metrics(result);

  bool changed = true;
  while (changed && result.rounds < kMaxRounds) {
    changed = false;
    ++result.rounds;
    if (!full_round(model, result, &changed, trace)) return;
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
  run_presolve(model, lb0, ub0, result, nullptr);
}

void presolve_record(const Model& model, PresolveResult& result,
                     PresolveTrace& trace) {
  trace = PresolveTrace{};
  trace.step_start.reserve(
      static_cast<std::size_t>(kMaxRounds) * model.num_constraints() + 1);
  trace.step_redundant.reserve(trace.step_start.capacity());
  run_presolve(model, nullptr, nullptr, result, &trace);
  if (result.infeasible) {
    trace = PresolveTrace{};
    return;
  }
  trace.valid = true;
  trace.rounds = result.rounds;
  const int n = model.num_vars();
  trace.lb0.resize(n);
  trace.ub0.resize(n);
  for (VarId v = 0; v < n; ++v) {
    trace.lb0[v] = model.var(v).lb;
    trace.ub0[v] = model.var(v).ub;
  }
  trace.step_start.push_back(static_cast<int>(trace.events.size()));
  trace.round_start.push_back(static_cast<int>(trace.roundings.size()));

  // Variable -> rows, ascending.
  trace.var_row_start.assign(n + 1, 0);
  for (const ConInfo& con : model.constraints()) {
    for (const auto& [v, coef] : con.lhs.terms()) {
      (void)coef;
      ++trace.var_row_start[v + 1];
    }
  }
  for (int v = 0; v < n; ++v) {
    trace.var_row_start[v + 1] += trace.var_row_start[v];
  }
  trace.var_rows.resize(trace.var_row_start[n]);
  std::vector<int> next(trace.var_row_start.begin(),
                        trace.var_row_start.end() - 1);
  for (ConId ci = 0; ci < model.num_constraints(); ++ci) {
    for (const auto& [v, coef] : model.constraint(ci).lhs.terms()) {
      (void)coef;
      trace.var_rows[next[v]++] = ci;
    }
  }
}

void presolve_replay(const Model& model, const PresolveTrace& trace,
                     const std::vector<double>& lb0,
                     const std::vector<double>& ub0, PresolveResult& result) {
  if (!trace.valid) {
    presolve_into(model, &lb0, &ub0, result);
    return;
  }
  if (!start_run(model, &lb0, &ub0, result)) return;

  MO_SPAN("lp.presolve");
  const PresolveMetrics metrics(result);

  using Bound = PresolveTrace::Bound;
  const int n = model.num_vars();
  const int m = model.num_constraints();
  PresolveResult::ReplayScratch& s = result.replay;
  s.root_lb = trace.lb0;
  s.root_ub = trace.ub0;
  s.root_redundant.assign(m, 0);
  s.var_differs.assign(n, 0);
  s.row_differs.assign(m, 0);
  s.differing.clear();

  // A variable differs while its node bounds are not bit-identical to
  // the root's at the same point of the run; a row with no differing
  // variable sees exactly the root's inputs.
  const auto sync = [&](VarId v) {
    const char differs = same_bits(result.lb[v], s.root_lb[v]) &&
                                 same_bits(result.ub[v], s.root_ub[v])
                             ? 0
                             : 1;
    if (differs == s.var_differs[v]) return;
    s.var_differs[v] = differs;
    const int delta = differs != 0 ? 1 : -1;
    for (int e = trace.var_row_start[v]; e < trace.var_row_start[v + 1]; ++e) {
      s.row_differs[trace.var_rows[e]] += delta;
    }
    if (differs != 0) s.differing.push_back(v);
  };
  const auto apply = [](const Bound& b, std::vector<double>& lb,
                        std::vector<double>& ub) {
    (b.upper ? ub : lb)[b.var] = b.value;
  };
  for (VarId v = 0; v < n; ++v) sync(v);

  bool changed = true;
  while (changed && result.rounds < kMaxRounds) {
    changed = false;
    const int k = result.rounds++;
    if (k >= trace.rounds) {
      // Past the root's last round: nothing left to replay.
      if (!full_round(model, result, &changed, nullptr)) return;
      continue;
    }
    for (ConId ci = 0; ci < m; ++ci) {
      const int step = k * m + ci;
      const bool node_red = result.redundant_rows[ci];
      const bool root_red = s.root_redundant[ci] != 0;
      if (node_red && root_red) continue;
      const int first = trace.step_start[step];
      const int last = trace.step_start[step + 1];
      if (!node_red && !root_red && s.row_differs[ci] == 0) {
        // The root's inputs bit for bit: its step is this node's step.
        for (int e = first; e < last; ++e) {
          apply(trace.events[e], result.lb, result.ub);
          apply(trace.events[e], s.root_lb, s.root_ub);
        }
        if (last > first) changed = true;
        result.tightenings += last - first;
        if (trace.step_redundant[step] != 0) {
          result.redundant_rows[ci] = true;
          s.root_redundant[ci] = 1;
        }
        continue;
      }
      if (!node_red) {
        const RowResult row = propagate_row(model.constraint(ci), result,
                                            &changed, [](VarId, bool) {});
        if (row == RowResult::Infeasible) {
          result.infeasible = true;
          return;
        }
        if (row == RowResult::Redundant) result.redundant_rows[ci] = true;
      }
      if (!root_red) {
        for (int e = first; e < last; ++e) {
          apply(trace.events[e], s.root_lb, s.root_ub);
        }
        if (trace.step_redundant[step] != 0) s.root_redundant[ci] = 1;
      }
      for (const auto& [v, coef] : model.constraint(ci).lhs.terms()) {
        (void)coef;
        sync(v);
      }
    }

    // Binary rounding, ascending: a differing binary rounds on its own
    // bounds, any other one exactly as the root's did.
    std::erase_if(s.differing, [&](VarId v) {
      return s.var_differs[v] == 0 ||
             model.var(v).kind != VarKind::Binary;
    });
    std::sort(s.differing.begin(), s.differing.end());
    s.differing.erase(std::unique(s.differing.begin(), s.differing.end()),
                      s.differing.end());
    const int rfirst = trace.round_start[k];
    const int rlast = trace.round_start[k + 1];
    std::size_t d = 0;
    const std::size_t nd = s.differing.size();
    int e = rfirst;
    s.synced.clear();
    while (d < nd || e < rlast) {
      const VarId dv = d < nd ? s.differing[d] : n;
      const VarId rv = e < rlast ? trace.roundings[e].var : n;
      const VarId v = std::min(dv, rv);
      if (v == dv) {
        bool rounded = false;
        if (!round_binary(v, result, &rounded)) {
          result.infeasible = true;
          return;
        }
        if (rounded) changed = true;
        ++d;
      }
      for (; e < rlast && trace.roundings[e].var == v; ++e) {
        if (v != dv) {
          apply(trace.roundings[e], result.lb, result.ub);
          changed = true;
        }
        apply(trace.roundings[e], s.root_lb, s.root_ub);
      }
      s.synced.push_back(v);
    }
    for (const VarId v : s.synced) sync(v);
  }
}

}  // namespace metaopt::lp
