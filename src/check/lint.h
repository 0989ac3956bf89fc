// Static model lint: structural and numerical sanity diagnostics for
// lp::Model instances *before* they reach a solver.
//
// The KKT rewrite materializes large machine-generated models (big-M
// indicator rows, complementarity pairs, McCormick envelopes); a silent
// modeling bug there — a NaN demand, an inverted bound, a big-M that
// absorbs the row it gates — fabricates or hides heuristic gaps without
// any solver error. The linter catches the failure shapes we know about
// as typed diagnostics, so hooks can log them and tests can assert their
// absence.
//
// Lint never throws and never mutates the model. Severity semantics:
//  * Error   — the model is malformed; solving it is meaningless.
//  * Warning — legal but suspicious; worth a look when a gap surprises.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace metaopt::check {

enum class LintCode {
  /// NaN or ±Inf constraint coefficient, objective coefficient/constant,
  /// or rhs (Error). Infinite *bounds* are legal; NaN bounds are not.
  NonFiniteValue,
  /// Variable with lb > ub (Error).
  InvertedBounds,
  /// Binary variable whose bounds are not within [0, 1] (Error).
  BinaryBounds,
  /// Constraint with no variable terms: trivially satisfied (Warning)
  /// or trivially violated (Error), depending on sense and rhs.
  EmptyRow,
  /// Row with a repeated variable before normalization (Warning): legal
  /// (terms merge), but usually a sign of a modeling slip.
  DuplicateTerm,
  /// Two rows with identical normalized terms, sense, and rhs (Warning).
  DuplicateRow,
  /// Inequality row that can never bind: LessEqual with rhs = +Inf or
  /// GreaterEqual with rhs = -Inf (Warning). Declared-free rows should
  /// simply not be added.
  FreeRow,
  /// Variable that appears in no constraint and can run to infinity in
  /// its objective-improving direction: the LP is unbounded whenever it
  /// is feasible (Error).
  StructurallyUnboundedColumn,
  /// Variable that appears in no constraint and no objective (Warning).
  UnusedVariable,
  /// Coefficient or rhs magnitude at or above tol::kBigMWarn
  /// (Warning): breaks the discrete meaning of the KKT rewrite's
  /// indicator rows through floating-point absorption.
  SuspiciousBigM,
  /// Complementarity pair referencing the same variable twice: forces
  /// the variable to zero, which is never what a KKT rewrite emits
  /// (Error).
  ComplementaritySelfPair,
  /// Complementarity pair over a variable with a negative lower bound
  /// (Error): pair semantics require both sides nonnegative.
  ComplementarityNegative,
};

const char* to_string(LintCode code);

enum class LintSeverity { Warning, Error };

struct LintDiagnostic {
  LintCode code = LintCode::NonFiniteValue;
  LintSeverity severity = LintSeverity::Warning;
  /// Name of the offending variable/constraint/pair (may be empty for
  /// unnamed rows; then `index` identifies it).
  std::string where;
  int index = -1;
  std::string message;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;

  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
  [[nodiscard]] bool has_errors() const;
  [[nodiscard]] bool has(LintCode code) const;
  [[nodiscard]] int count(LintCode code) const;
  /// One line per diagnostic; empty string for a clean report.
  [[nodiscard]] std::string to_string() const;
};

/// Lints `model`. Never throws; a malformed model yields Error
/// diagnostics instead.
[[nodiscard]] LintReport lint_model(const lp::Model& model);

}  // namespace metaopt::check
