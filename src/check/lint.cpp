#include "check/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "util/tolerances.h"

namespace metaopt::check {

namespace {

using lp::ConInfo;
using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::Sense;
using lp::VarId;
using lp::VarInfo;

const char* sense_name(Sense s) {
  switch (s) {
    case Sense::LessEqual: return "<=";
    case Sense::GreaterEqual: return ">=";
    case Sense::Equal: return "==";
  }
  return "?";
}

/// FNV-1a over the normalized row content, for duplicate-row buckets.
std::uint64_t hash_row(const LinExpr& lhs, Sense sense, double rhs) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(sense));
  mix_double(rhs);
  for (const auto& [v, c] : lhs.terms()) {
    mix(static_cast<std::uint64_t>(v));
    mix_double(c);
  }
  return h;
}

bool same_row(const LinExpr& a, const LinExpr& b) {
  if (a.terms().size() != b.terms().size()) return false;
  for (std::size_t i = 0; i < a.terms().size(); ++i) {
    if (a.terms()[i] != b.terms()[i]) return false;
  }
  return true;
}

class Linter {
 public:
  explicit Linter(const Model& model) : model_(model) {}

  LintReport run() {
    lint_vars();
    lint_objective();
    lint_rows();
    lint_columns();
    lint_complementarities();
    return std::move(report_);
  }

 private:
  void add(LintCode code, LintSeverity severity, std::string where, int index,
           std::string message) {
    report_.diagnostics.push_back(LintDiagnostic{
        code, severity, std::move(where), index, std::move(message)});
  }

  void lint_vars() {
    for (VarId v = 0; v < model_.num_vars(); ++v) {
      const VarInfo& info = model_.var(v);
      if (std::isnan(info.lb) || std::isnan(info.ub)) {
        add(LintCode::NonFiniteValue, LintSeverity::Error, info.name, v,
            "NaN variable bound");
        continue;
      }
      if (info.lb > info.ub) {
        add(LintCode::InvertedBounds, LintSeverity::Error, info.name, v,
            "lb " + std::to_string(info.lb) + " > ub " +
                std::to_string(info.ub));
      }
      if (info.kind == lp::VarKind::Binary &&
          (info.lb < 0.0 || info.ub > 1.0)) {
        add(LintCode::BinaryBounds, LintSeverity::Error, info.name, v,
            "binary bounds outside [0, 1]");
      }
    }
  }

  void lint_objective() {
    const LinExpr& obj = model_.objective();
    if (!std::isfinite(obj.constant())) {
      add(LintCode::NonFiniteValue, LintSeverity::Error, "objective", -1,
          "non-finite objective constant");
    }
    for (const auto& [v, coef] : obj.terms()) {
      if (!std::isfinite(coef)) {
        add(LintCode::NonFiniteValue, LintSeverity::Error, "objective", -1,
            "non-finite objective coefficient on " + var_name(v));
      } else if (std::abs(coef) >= tol::kBigMWarn) {
        add(LintCode::SuspiciousBigM, LintSeverity::Warning, "objective", -1,
            "objective coefficient " + std::to_string(coef) + " on " +
                var_name(v));
      }
    }
  }

  void lint_rows() {
    std::unordered_map<std::uint64_t, std::vector<int>> buckets;
    for (int ci = 0; ci < model_.num_constraints(); ++ci) {
      const ConInfo& con = model_.constraint(ci);
      const std::string where = con.name.empty()
                                    ? "row#" + std::to_string(ci)
                                    : con.name;

      if (std::isnan(con.rhs) ||
          (std::isinf(con.rhs) && con.sense == Sense::Equal)) {
        add(LintCode::NonFiniteValue, LintSeverity::Error, where, ci,
            "non-finite rhs");
      } else if (std::isinf(con.rhs)) {
        // +Inf on a LessEqual (or -Inf on a GreaterEqual) never binds;
        // the opposite infinity is unsatisfiable.
        const bool never_binds =
            (con.sense == Sense::LessEqual && con.rhs > 0.0) ||
            (con.sense == Sense::GreaterEqual && con.rhs < 0.0);
        if (never_binds) {
          add(LintCode::FreeRow, LintSeverity::Warning, where, ci,
              std::string("row can never bind (rhs ") +
                  (con.rhs > 0.0 ? "+Inf)" : "-Inf)"));
        } else {
          add(LintCode::NonFiniteValue, LintSeverity::Error, where, ci,
              "infinite rhs makes the row unsatisfiable");
        }
      } else if (std::abs(con.rhs) >= tol::kBigMWarn) {
        add(LintCode::SuspiciousBigM, LintSeverity::Warning, where, ci,
            "rhs magnitude " + std::to_string(con.rhs));
      }

      bool finite_terms = true;
      for (const auto& [v, coef] : con.lhs.terms()) {
        if (!std::isfinite(coef)) {
          add(LintCode::NonFiniteValue, LintSeverity::Error, where, ci,
              "non-finite coefficient on " + var_name(v));
          finite_terms = false;
        } else if (std::abs(coef) >= tol::kBigMWarn) {
          add(LintCode::SuspiciousBigM, LintSeverity::Warning, where, ci,
              "coefficient " + std::to_string(coef) + " on " + var_name(v));
        }
      }

      // Duplicate terms before normalization.
      {
        std::vector<VarId> ids;
        ids.reserve(con.lhs.terms().size());
        for (const auto& [v, coef] : con.lhs.terms()) {
          (void)coef;
          ids.push_back(v);
        }
        std::sort(ids.begin(), ids.end());
        const auto dup = std::adjacent_find(ids.begin(), ids.end());
        if (dup != ids.end()) {
          add(LintCode::DuplicateTerm, LintSeverity::Warning, where, ci,
              "variable " + var_name(*dup) + " appears twice");
        }
      }

      // Empty (constant) rows: trivially satisfied or violated.
      const LinExpr normalized = con.lhs.normalized();
      if (normalized.terms().empty()) {
        const double lhs = normalized.constant();  // 0 by construction
        bool violated = false;
        switch (con.sense) {
          case Sense::LessEqual: violated = lhs > con.rhs; break;
          case Sense::GreaterEqual: violated = lhs < con.rhs; break;
          case Sense::Equal: violated = lhs != con.rhs; break;
        }
        add(LintCode::EmptyRow,
            violated ? LintSeverity::Error : LintSeverity::Warning, where, ci,
            violated ? "constant row is trivially violated"
                     : "constant row is trivially satisfied");
      }

      if (finite_terms && !normalized.terms().empty()) {
        const std::uint64_t h = hash_row(normalized, con.sense, con.rhs);
        auto& bucket = buckets[h];
        for (const int other : bucket) {
          const ConInfo& prev = model_.constraint(other);
          if (prev.sense == con.sense && prev.rhs == con.rhs &&
              same_row(prev.lhs.normalized(), normalized)) {
            add(LintCode::DuplicateRow, LintSeverity::Warning, where, ci,
                std::string("identical to ") + sense_name(con.sense) + " row " +
                    (prev.name.empty() ? "#" + std::to_string(other)
                                       : prev.name));
            break;
          }
        }
        bucket.push_back(ci);
      }
    }
  }

  /// Column-level structure: variables in no row are either unused or,
  /// with an objective push toward an infinite bound, structurally
  /// unbounded.
  void lint_columns() {
    std::vector<bool> in_row(model_.num_vars(), false);
    for (const ConInfo& con : model_.constraints()) {
      for (const auto& [v, coef] : con.lhs.terms()) {
        if (coef != 0.0 && v >= 0 && v < model_.num_vars()) in_row[v] = true;
      }
    }
    std::vector<double> obj_coef(model_.num_vars(), 0.0);
    // normalized() returns by value; keep the temporary alive past terms().
    const LinExpr norm_obj = model_.objective().normalized();
    for (const auto& [v, coef] : norm_obj.terms()) {
      if (v >= 0 && v < model_.num_vars()) obj_coef[v] = coef;
    }
    const double improve =
        model_.objective_sense() == ObjSense::Minimize ? -1.0 : 1.0;
    for (VarId v = 0; v < model_.num_vars(); ++v) {
      if (in_row[v]) continue;
      const VarInfo& info = model_.var(v);
      const double push = improve * obj_coef[v];
      if (push > 0.0 && std::isinf(info.ub)) {
        add(LintCode::StructurallyUnboundedColumn, LintSeverity::Error,
            info.name, v,
            "appears in no row; objective pushes it to ub = +Inf");
      } else if (push < 0.0 && std::isinf(info.lb)) {
        add(LintCode::StructurallyUnboundedColumn, LintSeverity::Error,
            info.name, v,
            "appears in no row; objective pushes it to lb = -Inf");
      } else if (obj_coef[v] == 0.0) {
        add(LintCode::UnusedVariable, LintSeverity::Warning, info.name, v,
            "appears in no row and no objective");
      }
    }
  }

  void lint_complementarities() {
    const auto& pairs = model_.complementarities();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& pair = pairs[p];
      const std::string where =
          pair.name.empty() ? "pair#" + std::to_string(p) : pair.name;
      if (pair.a == pair.b) {
        add(LintCode::ComplementaritySelfPair, LintSeverity::Error, where,
            static_cast<int>(p),
            "both sides are " + var_name(pair.a) +
                " (forces the variable to zero)");
        continue;
      }
      for (const VarId side : {pair.a, pair.b}) {
        if (side >= 0 && side < model_.num_vars() &&
            model_.var(side).lb < 0.0) {
          add(LintCode::ComplementarityNegative, LintSeverity::Error, where,
              static_cast<int>(p),
              var_name(side) + " has a negative lower bound");
        }
      }
    }
  }

  [[nodiscard]] std::string var_name(VarId v) const {
    if (v < 0 || v >= model_.num_vars()) {
      return "var#" + std::to_string(v);
    }
    const std::string& name = model_.var(v).name;
    return name.empty() ? "var#" + std::to_string(v) : name;
  }

  const Model& model_;
  LintReport report_;
};

}  // namespace

const char* to_string(LintCode code) {
  switch (code) {
    case LintCode::NonFiniteValue: return "NonFiniteValue";
    case LintCode::InvertedBounds: return "InvertedBounds";
    case LintCode::BinaryBounds: return "BinaryBounds";
    case LintCode::EmptyRow: return "EmptyRow";
    case LintCode::DuplicateTerm: return "DuplicateTerm";
    case LintCode::DuplicateRow: return "DuplicateRow";
    case LintCode::FreeRow: return "FreeRow";
    case LintCode::StructurallyUnboundedColumn:
      return "StructurallyUnboundedColumn";
    case LintCode::UnusedVariable: return "UnusedVariable";
    case LintCode::SuspiciousBigM: return "SuspiciousBigM";
    case LintCode::ComplementaritySelfPair: return "ComplementaritySelfPair";
    case LintCode::ComplementarityNegative: return "ComplementarityNegative";
  }
  return "Unknown";
}

bool LintReport::has_errors() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const LintDiagnostic& d) {
                       return d.severity == LintSeverity::Error;
                     });
}

bool LintReport::has(LintCode code) const { return count(code) > 0; }

int LintReport::count(LintCode code) const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [code](const LintDiagnostic& d) { return d.code == code; }));
}

std::string LintReport::to_string() const {
  std::ostringstream out;
  for (const LintDiagnostic& d : diagnostics) {
    out << (d.severity == LintSeverity::Error ? "error" : "warning") << ": "
        << check::to_string(d.code) << " at " << d.where << ": " << d.message
        << "\n";
  }
  return out.str();
}

LintReport lint_model(const lp::Model& model) {
  return Linter(model).run();
}

}  // namespace metaopt::check
