#include "kkt/parametric.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "lp/revised_simplex.h"
#include "obs/obs.h"

namespace metaopt::kkt {

namespace {

const obs::Counter c_cache_hits = obs::counter("kkt.inner_cache_hits");

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

InnerLp::InnerLp(const InnerProblem& inner, const lp::Model& outer,
                 lp::SimplexOptions options)
    : inner_(inner),
      outer_(outer),
      decision_col_(outer.num_vars(), -1),
      options_(options),
      pool_(model_) {
  if (!inner.quadratic_objective().empty()) {
    throw std::invalid_argument(
        "InnerLp: quadratic inner objectives are not supported");
  }
  options_.want_duals = true;

  for (const lp::Var v : inner.decision_vars()) {
    const lp::VarInfo& info = outer.var(v);
    decision_col_[v.id] = model_.add_var(info.name, info.lb, info.ub).id;
  }
  // col[v]: the column of outer variable v, decision or outer; -1 until
  // a row references it.
  std::vector<int> col = decision_col_;
  for (const InnerConstraint& c : inner.constraints()) {
    lp::ConstraintSpec spec;
    spec.sense = c.spec.sense;
    spec.rhs = c.spec.rhs - c.spec.lhs.constant();
    for (const auto& [vid, coef] : c.spec.lhs.terms()) {
      int& k = col[vid];
      if (k < 0) {
        // Placeholder bounds [0, 0]: the anchor's outer values.
        k = model_.add_var(outer.var(vid).name, 0.0, 0.0).id;
        outer_col_var_.push_back(vid);
      }
      spec.lhs.add_term(k, coef);
    }
    spec.lhs.normalize();
    model_.add_constraint(std::move(spec), c.name);
  }
  lp::LinExpr objective(inner.objective().constant());
  for (const auto& [vid, coef] : inner.objective().terms()) {
    if (decision_col_[vid] >= 0) objective.add_term(decision_col_[vid], coef);
  }
  model_.set_objective(inner.sense(), std::move(objective));

  std::vector<double> lb;
  std::vector<double> ub;
  bounds_at(std::vector<double>(outer.num_vars(), 0.0), lb, ub);
  lp::WarmStartPool::Lease lease(pool_);
  const lp::Solution anchor = lp::SimplexSolver(options_).solve_with_bounds(
      model_, lb, ub, lease.context());
  if (anchor.status == lp::SolveStatus::Optimal) {
    anchor_ = lease.context().take_result();
  }
}

void InnerLp::bounds_at(const std::vector<double>& outer_values,
                        std::vector<double>& lb,
                        std::vector<double>& ub) const {
  const std::size_t num_decisions = inner_.decision_vars().size();
  lb.resize(model_.num_vars());
  ub.resize(model_.num_vars());
  for (std::size_t j = 0; j < num_decisions; ++j) {
    lb[j] = model_.var(static_cast<lp::VarId>(j)).lb;
    ub[j] = model_.var(static_cast<lp::VarId>(j)).ub;
  }
  for (std::size_t k = 0; k < outer_col_var_.size(); ++k) {
    const double v = outer_values[outer_col_var_[k]];
    lb[num_decisions + k] = v;
    ub[num_decisions + k] = v;
  }
}

ParametricSolve InnerLp::solve(const std::vector<double>& outer_values) const {
  if (outer_values.size() != static_cast<std::size_t>(outer_.num_vars())) {
    throw std::invalid_argument("InnerLp::solve: outer value size mismatch");
  }
  ParametricSolve out;
  if (const std::shared_ptr<const lp::Solution> hit = cached(outer_values)) {
    c_cache_hits.inc();
    out.solution = *hit;
    return out;
  }
  {
    MO_SPAN("kkt.inner_solve");
    std::vector<double> lb;
    std::vector<double> ub;
    bounds_at(outer_values, lb, ub);
    lp::WarmStartPool::Lease lease(pool_);
    lp::WarmStartContext& context = lease.context();
    context.hint = anchor_.get();
    out.solution =
        lp::SimplexSolver(options_).solve_with_bounds(model_, lb, ub, context);
  }
  if (out.ok()) store(outer_values, out.solution);
  return out;
}

bool InnerLp::key_matches(const std::vector<std::uint64_t>& key,
                          const std::vector<double>& outer_values) const {
  for (std::size_t k = 0; k < outer_col_var_.size(); ++k) {
    if (key[k] != bits(outer_values[outer_col_var_[k]])) return false;
  }
  return true;
}

std::shared_ptr<const lp::Solution> InnerLp::cached(
    const std::vector<double>& outer_values) const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (key_matches(it->key, outer_values)) {
      std::rotate(cache_.begin(), it, it + 1);
      return cache_.front().solution;
    }
  }
  return nullptr;
}

void InnerLp::store(const std::vector<double>& outer_values,
                    const lp::Solution& solution) const {
  // Copied before the lock: the lock only guards list surgery.
  auto entry = std::make_shared<const lp::Solution>(solution);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const CacheEntry& e : cache_) {
    // Another worker missed on the same key and stored it first.
    if (key_matches(e.key, outer_values)) return;
  }
  if (cache_.size() < kCacheEntries) cache_.emplace_back();
  // The oldest entry (or the new empty one) moves to the front and is
  // overwritten in place, reusing its key's storage.
  std::rotate(cache_.begin(), cache_.end() - 1, cache_.end());
  CacheEntry& front = cache_.front();
  front.key.resize(outer_col_var_.size());
  for (std::size_t k = 0; k < outer_col_var_.size(); ++k) {
    front.key[k] = bits(outer_values[outer_col_var_[k]]);
  }
  front.solution = std::move(entry);
}

bool assemble_kkt_point(const InnerLp& lp, const KktArtifacts& art,
                        const ParametricSolve& ps,
                        std::vector<double>& assignment) {
  const lp::Model& outer = lp.outer();
  if (!ps.ok()) return false;
  if (assignment.size() != static_cast<std::size_t>(outer.num_vars())) {
    return false;
  }

  // Decision values: column j == inner.decision_vars()[j].
  const std::vector<lp::Var>& decisions = lp.inner().decision_vars();
  for (std::size_t j = 0; j < decisions.size(); ++j) {
    const lp::Var v = decisions[j];
    if (std::isfinite(outer.var(v).ub)) return false;  // see header
    assignment[v.id] = ps.solution.values[j];
  }

  for (const KktRowInfo& row : art.rows) {
    // Multiplier value.
    double dual_value = 0.0;
    switch (row.source) {
      case KktRowInfo::Source::Declared:
        dual_value = ps.solution.duals[row.declared_index];
        break;
      case KktRowInfo::Source::LowerBound:
        dual_value = std::max(
            ps.solution.reduced_costs[lp.decision_column(row.bound_var)],
            0.0);
        break;
      case KktRowInfo::Source::UpperBound:
        return false;  // unreachable given the finite-ub check above
    }
    if (!row.is_eq && dual_value < 0.0) {
      if (dual_value < -1e-6) return false;  // genuine sign violation
      dual_value = 0.0;
    }
    const lp::VarInfo& dual_info = outer.var(row.dual);
    if (dual_value < dual_info.lb - 1e-9 || dual_value > dual_info.ub + 1e-9) {
      // The direct solve picked duals outside the declared analytic
      // bounds; skip this incumbent rather than emit an invalid point.
      return false;
    }
    assignment[row.dual.id] = std::clamp(dual_value, dual_info.lb,
                                         dual_info.ub);

    // Slack value s = -g at the assembled point.
    if (!row.is_eq) {
      double g = outer.eval(row.g, assignment);
      if (g > 1e-6) return false;  // primal infeasibility: reject
      double s = std::max(-g, 0.0);
      // Complementary slackness: zero out the smaller side so the pair
      // product vanishes exactly despite float noise.
      if (assignment[row.dual.id] > 1e-7 && s <= 1e-5) s = 0.0;
      if (s > 1e-7 && assignment[row.dual.id] <= 1e-5) {
        assignment[row.dual.id] = 0.0;
      }
      assignment[row.slack.id] = s;
    }
  }
  return true;
}

}  // namespace metaopt::kkt
