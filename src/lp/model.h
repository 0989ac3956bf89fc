// The optimization model container shared by the LP, MIP, and KKT layers.
//
// A Model holds variables (with bounds and kind), linear constraints, a
// linear objective, and complementarity (SOS1) pairs produced by KKT
// rewrites. The simplex solver consumes the continuous linear part; the
// branch-and-bound layer additionally enforces binaries and
// complementarity pairs.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lp/expr.h"
#include "lp/types.h"

namespace metaopt::lp {

/// Variable metadata.
struct VarInfo {
  std::string name;
  double lb = 0.0;
  double ub = kInf;
  VarKind kind = VarKind::Continuous;
};

/// Stored constraint: lhs terms (normalized) sense rhs.
struct ConInfo {
  std::string name;
  LinExpr lhs;  // terms only; constant folded into rhs
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
};

/// A complementarity pair: at most one of the two variables may be
/// nonzero in a feasible solution (SOS1 of size two). Both variables must
/// be nonnegative.
struct Complementarity {
  std::string name;
  VarId a = kInvalidVar;
  VarId b = kInvalidVar;
};

/// Size statistics for a model (Figure 6 reports these).
struct ModelStats {
  int num_vars = 0;
  int num_binaries = 0;
  int num_constraints = 0;
  int num_complementarities = 0;
  int num_nonzeros = 0;
};

class Model {
 public:
  // ---- construction ----

  /// Adds a continuous variable with bounds [lb, ub].
  Var add_var(std::string name, double lb = 0.0, double ub = kInf);

  /// Adds a binary variable (bounds [0, 1], VarKind::Binary).
  Var add_binary(std::string name);

  /// Adds a constraint from an operator-built spec; returns its id.
  ConId add_constraint(ConstraintSpec spec, std::string name = "");

  /// Adds a complementarity pair (a * b == 0; both vars must have lb >= 0).
  void add_complementarity(Var a, Var b, std::string name = "");

  /// Sets the linear objective.
  void set_objective(ObjSense sense, LinExpr expr);

  /// Tightens/overwrites the bounds of an existing variable.
  void set_bounds(Var v, double lb, double ub);

  // ---- accessors ----

  [[nodiscard]] int num_vars() const { return static_cast<int>(vars_.size()); }
  [[nodiscard]] int num_constraints() const {
    return static_cast<int>(cons_.size());
  }
  [[nodiscard]] const VarInfo& var(VarId id) const { return vars_.at(id); }
  [[nodiscard]] const VarInfo& var(Var v) const { return vars_.at(v.id); }
  [[nodiscard]] const ConInfo& constraint(ConId id) const {
    return cons_.at(id);
  }
  [[nodiscard]] const std::vector<VarInfo>& vars() const { return vars_; }
  [[nodiscard]] const std::vector<ConInfo>& constraints() const {
    return cons_;
  }
  [[nodiscard]] const std::vector<Complementarity>& complementarities() const {
    return compl_;
  }
  [[nodiscard]] ObjSense objective_sense() const { return obj_sense_; }
  [[nodiscard]] const LinExpr& objective() const { return objective_; }

  // ---- evaluation / checking ----

  /// Evaluates a linear expression at the assignment `x` (indexed by
  /// VarId; must cover all referenced variables).
  [[nodiscard]] double eval(const LinExpr& expr,
                            std::span<const double> x) const;

  /// Objective value at `x`.
  [[nodiscard]] double objective_value(std::span<const double> x) const;

  /// Maximum violation of constraints + bounds + complementarity +
  /// binary integrality at `x`. Zero (<= tol) means feasible.
  [[nodiscard]] double max_violation(std::span<const double> x) const;

  /// Size statistics (Figure 6).
  [[nodiscard]] ModelStats stats() const;

  /// Throws std::invalid_argument on malformed content (bad var ids,
  /// lb > ub, complementarity over possibly-negative vars).
  void validate() const;

 private:
  std::vector<VarInfo> vars_;
  std::vector<ConInfo> cons_;
  std::vector<Complementarity> compl_;
  LinExpr objective_;
  ObjSense obj_sense_ = ObjSense::Minimize;
};

}  // namespace metaopt::lp
