// Declaration of an *inner* convex problem embedded in an outer model.
//
// The paper's two-stage game (Eq. 1) has a leader choosing inputs and two
// followers (OPT and the heuristic) each solving a convex program that
// treats the leader's variables as constants. We represent a follower as
// an InnerProblem: a set of decision variables (VarIds of the shared
// outer Model), linear constraints that may also reference outer
// variables (e.g. demands appear on the RHS of Eq. 2's volume rows), and
// an objective that is linear — or, for the Fig. 2 rectangle example,
// linear plus a convex diagonal quadratic.
//
// Any variable referenced by a constraint that is not declared a decision
// variable is implicitly an outer parameter: it contributes to primal
// feasibility and to the slack definitions but not to stationarity —
// exactly the "P plays no role in the KKT rewrite" remark of §3.1.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace metaopt::kkt {

/// One inner constraint plus an optional a-priori bound on its optimal
/// dual multiplier. Dual bounds are never required for correctness; when
/// a problem-specific bound is known (e.g. all max-flow duals admit an
/// optimal choice in [0,1] because objective coefficients are 1), setting
/// it tightens the branch-and-bound relaxation dramatically.
struct InnerConstraint {
  lp::ConstraintSpec spec;
  std::string name;
  double dual_bound = lp::kInf;  ///< |multiplier| <= dual_bound
};

class InnerProblem {
 public:
  explicit InnerProblem(lp::ObjSense sense) : sense_(sense) {}

  /// Declares `v` (a variable of the outer model) as an inner decision
  /// variable. Its finite outer bounds are handled as inner constraints
  /// during the KKT rewrite.
  void add_decision_var(lp::Var v) { decision_vars_.push_back(v); }

  void add_constraint(lp::ConstraintSpec spec, std::string name = "",
                      double dual_bound = lp::kInf) {
    constraints_.push_back(
        InnerConstraint{std::move(spec), std::move(name), dual_bound});
  }

  /// Objective over decision variables (outer-variable terms are legal
  /// but constant w.r.t. the inner argmax).
  void set_objective(lp::LinExpr expr) {
    objective_ = std::move(expr);
    objective_.normalize();
  }

  /// Adds `coef * v^2` to the objective (convex: coef > 0 when
  /// minimizing, coef < 0 when maximizing). Fig. 2 support.
  void add_quadratic_objective(lp::Var v, double coef) {
    quad_obj_.emplace_back(v.id, coef);
  }

  /// Default bound applied to duals of the decision variables' implicit
  /// bound constraints (lb/ub rows added by the rewrite).
  void set_bound_dual_bound(double b) { bound_dual_bound_ = b; }

  /// Multiplies every dual bound set so far (constraint rows and the
  /// decision-variable bound rows) by `factor`.
  void scale_dual_bounds(double factor) {
    for (InnerConstraint& c : constraints_) c.dual_bound *= factor;
    bound_dual_bound_ *= factor;
  }

  [[nodiscard]] lp::ObjSense sense() const { return sense_; }
  [[nodiscard]] const std::vector<lp::Var>& decision_vars() const {
    return decision_vars_;
  }
  [[nodiscard]] const std::vector<InnerConstraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const lp::LinExpr& objective() const { return objective_; }
  [[nodiscard]] const std::vector<std::pair<lp::VarId, double>>&
  quadratic_objective() const {
    return quad_obj_;
  }
  [[nodiscard]] double bound_dual_bound() const { return bound_dual_bound_; }

 private:
  lp::ObjSense sense_;
  std::vector<lp::Var> decision_vars_;
  std::vector<InnerConstraint> constraints_;
  lp::LinExpr objective_;
  std::vector<std::pair<lp::VarId, double>> quad_obj_;
  double bound_dual_bound_ = lp::kInf;
};

}  // namespace metaopt::kkt
