#include "lp/model.h"

#include <cmath>
#include <stdexcept>

namespace metaopt::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "Optimal";
    case SolveStatus::Infeasible: return "Infeasible";
    case SolveStatus::Unbounded: return "Unbounded";
    case SolveStatus::IterationLimit: return "IterationLimit";
    case SolveStatus::TimeLimit: return "TimeLimit";
    case SolveStatus::Feasible: return "Feasible";
    case SolveStatus::Error: return "Error";
  }
  return "Unknown";
}

Var Model::add_var(std::string name, double lb, double ub) {
  if (lb > ub) {
    throw std::invalid_argument("Model::add_var: lb > ub for " + name);
  }
  VarInfo info;
  info.name = std::move(name);
  info.lb = lb;
  info.ub = ub;
  vars_.push_back(std::move(info));
  return Var{static_cast<VarId>(vars_.size() - 1)};
}

Var Model::add_binary(std::string name) {
  Var v = add_var(std::move(name), 0.0, 1.0);
  vars_[v.id].kind = VarKind::Binary;
  return v;
}

ConId Model::add_constraint(ConstraintSpec spec, std::string name) {
  ConInfo info;
  info.name = std::move(name);
  info.lhs = std::move(spec.lhs);
  info.lhs.normalize();
  info.sense = spec.sense;
  info.rhs = spec.rhs;
  for (const auto& [id, coef] : info.lhs.terms()) {
    (void)coef;
    if (id < 0 || id >= num_vars()) {
      throw std::invalid_argument("Model::add_constraint: unknown variable");
    }
  }
  cons_.push_back(std::move(info));
  return static_cast<ConId>(cons_.size() - 1);
}

void Model::add_complementarity(Var a, Var b, std::string name) {
  if (!a.valid() || !b.valid() || a.id >= num_vars() || b.id >= num_vars()) {
    throw std::invalid_argument("Model::add_complementarity: invalid vars");
  }
  compl_.push_back(Complementarity{std::move(name), a.id, b.id});
}

void Model::set_objective(ObjSense sense, LinExpr expr) {
  obj_sense_ = sense;
  expr.normalize();
  objective_ = std::move(expr);
}

void Model::set_bounds(Var v, double lb, double ub) {
  if (!v.valid() || v.id >= num_vars()) {
    throw std::invalid_argument("Model::set_bounds: invalid var");
  }
  if (lb > ub) throw std::invalid_argument("Model::set_bounds: lb > ub");
  vars_[v.id].lb = lb;
  vars_[v.id].ub = ub;
}

double Model::eval(const LinExpr& expr, std::span<const double> x) const {
  double value = expr.constant();
  for (const auto& [id, coef] : expr.terms()) value += coef * x[id];
  return value;
}

double Model::objective_value(std::span<const double> x) const {
  return eval(objective_, x);
}

double Model::max_violation(std::span<const double> x) const {
  double worst = 0.0;
  for (VarId i = 0; i < num_vars(); ++i) {
    worst = std::max(worst, vars_[i].lb - x[i]);
    worst = std::max(worst, x[i] - vars_[i].ub);
    if (vars_[i].kind == VarKind::Binary) {
      worst = std::max(worst, std::abs(x[i] - std::round(x[i])));
    }
  }
  for (const ConInfo& con : cons_) {
    const double lhs = eval(con.lhs, x);
    switch (con.sense) {
      case Sense::LessEqual: worst = std::max(worst, lhs - con.rhs); break;
      case Sense::GreaterEqual: worst = std::max(worst, con.rhs - lhs); break;
      case Sense::Equal: worst = std::max(worst, std::abs(lhs - con.rhs)); break;
    }
  }
  for (const Complementarity& pair : compl_) {
    worst = std::max(worst, std::abs(x[pair.a] * x[pair.b]));
  }
  return worst;
}

ModelStats Model::stats() const {
  ModelStats s;
  s.num_vars = num_vars();
  for (const VarInfo& v : vars_) {
    if (v.kind == VarKind::Binary) ++s.num_binaries;
  }
  s.num_constraints = num_constraints();
  s.num_complementarities = static_cast<int>(compl_.size());
  for (const ConInfo& con : cons_) {
    s.num_nonzeros += static_cast<int>(con.lhs.terms().size());
  }
  return s;
}

void Model::validate() const {
  for (const VarInfo& v : vars_) {
    if (v.lb > v.ub) {
      throw std::invalid_argument("Model: lb > ub for " + v.name);
    }
  }
  for (const Complementarity& pair : compl_) {
    if (pair.a < 0 || pair.a >= num_vars() || pair.b < 0 ||
        pair.b >= num_vars()) {
      throw std::invalid_argument("Model: complementarity over unknown vars");
    }
    if (vars_[pair.a].lb < 0.0 || vars_[pair.b].lb < 0.0) {
      throw std::invalid_argument(
          "Model: complementarity requires nonnegative variables (" +
          vars_[pair.a].name + ", " + vars_[pair.b].name + ")");
    }
  }
  for (const ConInfo& con : cons_) {
    for (const auto& [id, coef] : con.lhs.terms()) {
      (void)coef;
      if (id < 0 || id >= num_vars()) {
        throw std::invalid_argument("Model: constraint over unknown vars");
      }
    }
  }
}

}  // namespace metaopt::lp
