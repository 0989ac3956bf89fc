#include "check/certify.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace metaopt::check {

namespace {

using lp::ConInfo;
using lp::Model;
using lp::ObjSense;
using lp::Sense;
using lp::Solution;
using lp::SolveStatus;
using lp::VarId;
using lp::VarInfo;

/// Canonical orientation multiplier: every row is rewritten g(x) <= 0 /
/// g(x) == 0 with g = sig * (a'x - b); the reported dual multiplies
/// dg/dx = sig * a in stationarity. LessEqual keeps its orientation;
/// GreaterEqual flips; Equal duals empirically enter negated (the same
/// convention kkt/canon.cpp emits).
double canon_sign(Sense sense) {
  return sense == Sense::LessEqual ? 1.0 : -1.0;
}

class Certifier {
 public:
  Certifier(const Model& model, const Solution& sol,
            const CertifyOptions& opt, const std::vector<double>* lb,
            const std::vector<double>* ub)
      : model_(model), sol_(sol), opt_(opt), lb_(lb), ub_(ub) {}

  Certificate certify_lp() {
    if (!check_lp_structure()) return std::move(cert_);

    check_primal();
    check_objective_recompute();

    const bool duals_present =
        sol_.duals.size() == static_cast<std::size_t>(model_.num_constraints());
    if (sol_.status == SolveStatus::Optimal && duals_present) {
      cert_.checked_duals = true;
      check_dual_signs();
      check_stationarity();
      check_reduced_costs();
      check_complementary_slackness();
      // The duality-gap identity assumes a consistent KKT point; on
      // inconsistent inputs it only repeats upstream failures.
      if (cert_.ok) check_duality_gap();
    }
    return std::move(cert_);
  }

  Certificate certify_mip() {
    if (!check_mip_structure()) return std::move(cert_);
    check_primal();
    check_integrality();
    check_pair_products();
    check_objective_recompute();
    check_bound_consistency();
    return std::move(cert_);
  }

 private:
  // ---- plumbing ----

  void add(ViolationClass cls, std::string where, double measured,
           double allowed, std::string detail) {
    cert_.ok = false;
    cert_.violations.push_back(Violation{cls, std::move(where), measured,
                                         allowed, std::move(detail)});
  }

  /// Records the worst measured/allowed ratio for the summary fields.
  static void track(double* slot, double measured, double allowed) {
    if (allowed > 0.0) *slot = std::max(*slot, measured / allowed);
  }

  [[nodiscard]] double var_lb(VarId v) const {
    return lb_ ? (*lb_)[v] : model_.var(v).lb;
  }
  [[nodiscard]] double var_ub(VarId v) const {
    return ub_ ? (*ub_)[v] : model_.var(v).ub;
  }
  [[nodiscard]] std::string row_name(int ci) const {
    const std::string& name = model_.constraint(ci).name;
    return name.empty() ? "row#" + std::to_string(ci) : name;
  }
  [[nodiscard]] std::string var_name(VarId v) const {
    const std::string& name = model_.var(v).name;
    return name.empty() ? "var#" + std::to_string(v) : name;
  }

  /// Internal-minimization sign: duals and stationarity are expressed
  /// for min s*c'x.
  [[nodiscard]] double s() const {
    return model_.objective_sense() == ObjSense::Maximize ? -1.0 : 1.0;
  }

  // ---- structure ----

  bool check_lp_structure() {
    if (sol_.status != SolveStatus::Optimal && !sol_.has_solution()) {
      add(ViolationClass::Structure, "status", 0.0, 0.0,
          std::string("status ") + lp::to_string(sol_.status) +
              " carries no certifiable point");
      return false;
    }
    if (sol_.values.size() != static_cast<std::size_t>(model_.num_vars())) {
      add(ViolationClass::Structure, "values", 0.0, 0.0,
          "values size " + std::to_string(sol_.values.size()) +
              " != num_vars " + std::to_string(model_.num_vars()));
      return false;
    }
    for (const double x : sol_.values) {
      if (!std::isfinite(x)) {
        add(ViolationClass::Structure, "values", 0.0, 0.0,
            "non-finite entry in values");
        return false;
      }
    }
    return true;
  }

  bool check_mip_structure() {
    if (!sol_.has_solution()) {
      add(ViolationClass::Structure, "status", 0.0, 0.0,
          std::string("status ") + lp::to_string(sol_.status) +
              " carries no incumbent to certify");
      return false;
    }
    if (sol_.values.size() != static_cast<std::size_t>(model_.num_vars())) {
      add(ViolationClass::Structure, "values", 0.0, 0.0,
          "values size " + std::to_string(sol_.values.size()) +
              " != num_vars " + std::to_string(model_.num_vars()));
      return false;
    }
    for (const double x : sol_.values) {
      if (!std::isfinite(x)) {
        add(ViolationClass::Structure, "values", 0.0, 0.0,
            "non-finite entry in values");
        return false;
      }
    }
    return true;
  }

  // ---- pillar P: primal feasibility ----

  void check_primal() {
    for (VarId v = 0; v < model_.num_vars(); ++v) {
      const double x = sol_.values[v];
      const double lo = var_lb(v), hi = var_ub(v);
      const double viol = std::max(lo - x, x - hi);
      const double scale =
          1.0 + std::abs(x) +
          std::max(std::isfinite(lo) ? std::abs(lo) : 0.0,
                   std::isfinite(hi) ? std::abs(hi) : 0.0);
      const double allowed = opt_.primal_tol * scale;
      track(&cert_.max_primal, std::max(viol, 0.0), allowed);
      if (viol > allowed) {
        add(ViolationClass::PrimalFeasibility, var_name(v), viol, allowed,
            "bound violated: x = " + std::to_string(x) + " outside [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
      }
    }
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const ConInfo& con = model_.constraint(ci);
      double act = 0.0, abs_act = 0.0;
      for (const auto& [v, coef] : con.lhs.terms()) {
        const double t = coef * sol_.values[v];
        act += t;
        abs_act += std::abs(t);
      }
      double viol = 0.0;
      switch (con.sense) {
        case Sense::LessEqual: viol = act - con.rhs; break;
        case Sense::GreaterEqual: viol = con.rhs - act; break;
        case Sense::Equal: viol = std::abs(act - con.rhs); break;
      }
      const double allowed =
          opt_.primal_tol * (1.0 + abs_act + std::abs(con.rhs));
      track(&cert_.max_primal, std::max(viol, 0.0), allowed);
      if (viol > allowed) {
        add(ViolationClass::PrimalFeasibility, row_name(ci), viol, allowed,
            "activity " + std::to_string(act) + " vs rhs " +
                std::to_string(con.rhs));
      }
    }
  }

  // ---- pillar D: dual feasibility (signs + stationarity) ----

  void check_dual_signs() {
    double kappa = 1.0;
    for (const double y : sol_.duals) kappa = std::max(kappa, std::abs(y));
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const ConInfo& con = model_.constraint(ci);
      const double y = sol_.duals[ci];
      if (!std::isfinite(y)) {
        add(ViolationClass::DualFeasibility, row_name(ci), 0.0, 0.0,
            "non-finite dual");
        continue;
      }
      if (con.sense == Sense::Equal) continue;  // free multiplier
      const double allowed = opt_.dual_tol * kappa;
      track(&cert_.max_dual, std::max(-y, 0.0), allowed);
      if (y < -allowed) {
        add(ViolationClass::DualFeasibility, row_name(ci), -y, allowed,
            "negative inequality multiplier " + std::to_string(y));
      }
    }
  }

  /// Lagrangian gradient per variable: grad_v = s*c_v + sum_i y_i *
  /// dg_i/dx_v must match the active-bound pattern (= nu_v - mu_v).
  void check_stationarity() {
    const int n = model_.num_vars();
    std::vector<double> grad(n, 0.0), scale(n, 1.0);
    for (const auto& [v, coef] : model_.objective().terms()) {
      grad[v] += s() * coef;
      scale[v] += std::abs(coef);
    }
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const double y = sol_.duals[ci];
      if (y == 0.0 || !std::isfinite(y)) continue;
      const double sig = canon_sign(model_.constraint(ci).sense);
      for (const auto& [v, coef] : model_.constraint(ci).lhs.terms()) {
        grad[v] += y * sig * coef;
        scale[v] += std::abs(y * coef);
      }
    }
    for (VarId v = 0; v < n; ++v) {
      const double allowed = opt_.dual_tol * scale[v];
      const double residual = bound_pattern_residual(v, grad[v], allowed);
      track(&cert_.max_dual, residual, allowed);
      if (residual > allowed) {
        add(ViolationClass::DualFeasibility, var_name(v), residual, allowed,
            "stationarity: Lagrangian gradient " + std::to_string(grad[v]) +
                " inconsistent with the active bounds");
      }
    }
  }

  /// Reported reduced costs must obey the same bound pattern (they are
  /// the implicit bound multipliers nu - mu). A Shifted variable sitting
  /// on a finite upper bound legitimately reports 0 while the gradient
  /// carries -mu, so this is a sign check, not an equality with grad.
  void check_reduced_costs() {
    if (sol_.reduced_costs.size() !=
        static_cast<std::size_t>(model_.num_vars())) {
      return;  // optional output; absence is not a violation
    }
    std::vector<double> scale(model_.num_vars(), 1.0);
    for (const auto& [v, coef] : model_.objective().terms()) {
      scale[v] += std::abs(coef);
    }
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const double y = sol_.duals[ci];
      if (y == 0.0 || !std::isfinite(y)) continue;
      for (const auto& [v, coef] : model_.constraint(ci).lhs.terms()) {
        scale[v] += std::abs(y * coef);
      }
    }
    for (VarId v = 0; v < model_.num_vars(); ++v) {
      const double r = sol_.reduced_costs[v];
      if (!std::isfinite(r)) {
        add(ViolationClass::DualFeasibility, var_name(v), 0.0, 0.0,
            "non-finite reduced cost");
        continue;
      }
      const double allowed = opt_.dual_tol * scale[v];
      const double residual = bound_pattern_residual(v, r, allowed);
      track(&cert_.max_dual, residual, allowed);
      if (residual > allowed) {
        add(ViolationClass::DualFeasibility, var_name(v), residual, allowed,
            "reduced cost " + std::to_string(r) +
                " inconsistent with the active bounds");
      }
    }
  }

  /// How much `g` (a gradient/reduced-cost value) violates the sign
  /// pattern allowed by v's active bounds: g may be positive only at the
  /// lower bound, negative only at the upper, anything when fixed.
  [[nodiscard]] double bound_pattern_residual(VarId v, double g,
                                              double zero_tol) const {
    const double x = sol_.values[v];
    const double lo = var_lb(v), hi = var_ub(v);
    const bool at_lb =
        std::isfinite(lo) &&
        x - lo <= opt_.primal_tol * (1.0 + std::abs(lo) + std::abs(x));
    const bool at_ub =
        std::isfinite(hi) &&
        hi - x <= opt_.primal_tol * (1.0 + std::abs(hi) + std::abs(x));
    (void)zero_tol;
    if (at_lb && at_ub) return 0.0;  // fixed: multiplier is free
    if (at_lb) return std::max(-g, 0.0);
    if (at_ub) return std::max(g, 0.0);
    return std::abs(g);
  }

  // ---- pillar C: complementary slackness ----

  void check_complementary_slackness() {
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const ConInfo& con = model_.constraint(ci);
      if (con.sense == Sense::Equal) continue;
      const double y = sol_.duals[ci];
      if (!std::isfinite(y)) continue;  // reported by check_dual_signs
      double act = 0.0, abs_act = 0.0;
      for (const auto& [v, coef] : con.lhs.terms()) {
        const double t = coef * sol_.values[v];
        act += t;
        abs_act += std::abs(t);
      }
      const double slack = con.sense == Sense::LessEqual ? con.rhs - act
                                                         : act - con.rhs;
      const double viol = std::min(std::abs(y), std::max(slack, 0.0));
      const double allowed =
          opt_.compl_tol * (1.0 + abs_act + std::abs(con.rhs) + std::abs(y));
      track(&cert_.max_compl, viol, allowed);
      if (viol > allowed) {
        add(ViolationClass::ComplementarySlackness, row_name(ci), viol,
            allowed,
            "multiplier " + std::to_string(y) + " on a row with slack " +
                std::to_string(slack));
      }
    }
  }

  // ---- pillar O: objective integrity ----

  void check_objective_recompute() {
    double abs_obj = std::abs(model_.objective().constant());
    for (const auto& [v, coef] : model_.objective().terms()) {
      abs_obj += std::abs(coef * sol_.values[v]);
    }
    const double recomputed = model_.objective_value(sol_.values);
    const double err = std::abs(sol_.objective - recomputed);
    const double allowed = opt_.obj_tol * (1.0 + abs_obj);
    cert_.objective_error = std::max(cert_.objective_error, err);
    if (err > allowed) {
      add(ViolationClass::ObjectiveMismatch, "objective", err, allowed,
          "reported " + std::to_string(sol_.objective) + " vs recomputed " +
              std::to_string(recomputed));
    }
  }

  /// Strong duality: the internal primal objective must equal the dual
  /// objective assembled from the multipliers and the active bounds.
  void check_duality_gap() {
    const int n = model_.num_vars();
    std::vector<double> grad(n, 0.0), scale(n, 1.0);
    for (const auto& [v, coef] : model_.objective().terms()) {
      grad[v] += s() * coef;
      scale[v] += std::abs(coef);
    }
    double dual_obj = s() * model_.objective().constant();
    double abs_terms = 0.0;
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const ConInfo& con = model_.constraint(ci);
      const double y = sol_.duals[ci];
      if (y == 0.0 || !std::isfinite(y)) continue;
      const double sig = canon_sign(con.sense);
      for (const auto& [v, coef] : con.lhs.terms()) {
        grad[v] += y * sig * coef;
        scale[v] += std::abs(y * coef);
      }
      dual_obj += -sig * y * con.rhs;
      abs_terms += std::abs(y * con.rhs);
    }
    // Active-bound contributions: grad_v = nu_v - mu_v.
    for (VarId v = 0; v < n; ++v) {
      const double g = grad[v];
      const double thresh = opt_.dual_tol * scale[v];
      const double lo = var_lb(v), hi = var_ub(v);
      double contrib = 0.0;
      if (std::isfinite(lo) && std::isfinite(hi) &&
          hi - lo <= 2.0 * opt_.primal_tol * (1.0 + std::abs(lo))) {
        contrib = g * sol_.values[v];  // fixed variable
      } else if (g > thresh && std::isfinite(lo)) {
        contrib = g * lo;  // nu_v active at the lower bound
      } else if (g < -thresh && std::isfinite(hi)) {
        contrib = g * hi;  // mu_v active at the upper bound
      }
      dual_obj += contrib;
      abs_terms += std::abs(contrib);
    }
    const double primal_obj = s() * model_.objective_value(sol_.values);
    const double gap = std::abs(primal_obj - dual_obj);
    const double allowed =
        opt_.obj_tol * (1.0 + std::abs(primal_obj) + abs_terms);
    cert_.duality_gap = std::max(cert_.duality_gap, gap);
    if (gap > allowed) {
      add(ViolationClass::DualityGap, "objective", gap, allowed,
          "primal " + std::to_string(primal_obj) + " vs dual " +
              std::to_string(dual_obj) + " (internal minimization)");
    }
  }

  // ---- MIP-only pillars ----

  void check_integrality() {
    for (VarId v = 0; v < model_.num_vars(); ++v) {
      if (model_.var(v).kind != lp::VarKind::Binary) continue;
      const double x = sol_.values[v];
      const double frac = std::abs(x - std::round(x));
      track(&cert_.max_primal, frac, opt_.int_tol);
      if (frac > opt_.int_tol) {
        add(ViolationClass::Integrality, var_name(v), frac, opt_.int_tol,
            "binary value " + std::to_string(x));
      }
    }
  }

  void check_pair_products() {
    const auto& pairs = model_.complementarities();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& pair = pairs[p];
      const double a = sol_.values[pair.a], b = sol_.values[pair.b];
      const double viol = std::abs(a * b);
      const double allowed =
          opt_.compl_tol * (1.0 + std::abs(a) + std::abs(b));
      track(&cert_.max_compl, viol, allowed);
      if (viol > allowed) {
        add(ViolationClass::Complementarity,
            pair.name.empty() ? "pair#" + std::to_string(p) : pair.name,
            viol, allowed,
            "product " + std::to_string(a) + " * " + std::to_string(b));
      }
    }
  }

  void check_bound_consistency() {
    if (!std::isfinite(sol_.best_bound)) return;  // nothing proven yet
    const double dir =
        model_.objective_sense() == ObjSense::Maximize ? 1.0 : -1.0;
    const double scale = std::max(1.0, std::abs(sol_.objective));
    if (sol_.status == SolveStatus::Optimal) {
      const double gap = std::abs(sol_.best_bound - sol_.objective);
      const double allowed =
          std::max(opt_.mip_abs_gap, opt_.mip_rel_gap * scale);
      if (gap > allowed) {
        add(ViolationClass::BoundConsistency, "best_bound", gap, allowed,
            "Optimal status but bound " + std::to_string(sol_.best_bound) +
                " != objective " + std::to_string(sol_.objective));
      }
    } else {
      // The proven bound must not claim the incumbent is super-optimal.
      const double shortfall = dir * (sol_.objective - sol_.best_bound);
      const double allowed =
          std::max(opt_.mip_abs_gap, opt_.mip_rel_gap * scale);
      if (shortfall > allowed) {
        add(ViolationClass::BoundConsistency, "best_bound", shortfall,
            allowed,
            "incumbent " + std::to_string(sol_.objective) +
                " is on the wrong side of the proven bound " +
                std::to_string(sol_.best_bound));
      }
    }
  }

  const Model& model_;
  const Solution& sol_;
  const CertifyOptions& opt_;
  const std::vector<double>* lb_;
  const std::vector<double>* ub_;
  Certificate cert_;
};

}  // namespace

const char* to_string(ViolationClass cls) {
  switch (cls) {
    case ViolationClass::Structure: return "Structure";
    case ViolationClass::PrimalFeasibility: return "PrimalFeasibility";
    case ViolationClass::DualFeasibility: return "DualFeasibility";
    case ViolationClass::ComplementarySlackness:
      return "ComplementarySlackness";
    case ViolationClass::ObjectiveMismatch: return "ObjectiveMismatch";
    case ViolationClass::DualityGap: return "DualityGap";
    case ViolationClass::Integrality: return "Integrality";
    case ViolationClass::Complementarity: return "Complementarity";
    case ViolationClass::BoundConsistency: return "BoundConsistency";
  }
  return "Unknown";
}

CertifyOptions CertifyOptions::for_mip() {
  CertifyOptions out;
  // MIP incumbents may be externally assembled KKT points, screened at
  // the assembled-point tolerance — the certifier must accept what the
  // search was configured to accept.
  out.primal_tol = std::max(out.primal_tol, tol::kAssembledPointTol);
  out.obj_tol = std::max(out.obj_tol, tol::kAssembledPointTol);
  out.compl_tol = std::max(tol::kComplTol, tol::kAssembledPointTol);
  return out;
}

bool Certificate::has(ViolationClass cls) const { return count(cls) > 0; }

int Certificate::count(ViolationClass cls) const {
  return static_cast<int>(
      std::count_if(violations.begin(), violations.end(),
                    [cls](const Violation& v) { return v.cls == cls; }));
}

std::string Certificate::to_string() const {
  if (ok) return "certified";
  std::ostringstream out;
  out << violations.size() << " violation(s):\n";
  constexpr std::size_t kMaxLines = 20;
  for (std::size_t i = 0; i < violations.size() && i < kMaxLines; ++i) {
    const Violation& v = violations[i];
    out << "  " << check::to_string(v.cls) << " at " << v.where << ": "
        << v.detail << " (|viol| " << v.measured << " > " << v.allowed
        << ")\n";
  }
  if (violations.size() > kMaxLines) {
    out << "  ... and " << violations.size() - kMaxLines << " more\n";
  }
  return out.str();
}

Certificate certify_lp(const lp::Model& model, const lp::Solution& solution,
                       const CertifyOptions& options,
                       const std::vector<double>* lb,
                       const std::vector<double>* ub) {
  return Certifier(model, solution, options, lb, ub).certify_lp();
}

Certificate certify_mip(const lp::Model& model, const lp::Solution& solution,
                        const CertifyOptions& options) {
  return Certifier(model, solution, options, nullptr, nullptr).certify_mip();
}

}  // namespace metaopt::check
