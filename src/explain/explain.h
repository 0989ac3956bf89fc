// Driver: explain one gap witness end to end.
//
// Takes an instance + witness, probes the full support to establish the
// witness gap, derives the retention threshold, minimizes to a
// 1-minimal adversarial core, and asks the domain for a breakdown of
// the core sub-instance. Every probe is an exact certified
// heuristic-vs-OPT re-solve; the whole run is deterministic given
// (instance, witness, options).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explain/report.h"
#include "heur/instance.h"

namespace metaopt::explain {

struct ExplainOptions {
  /// Must be "greedy", the one core minimizer (minimize_core); any other
  /// value is reported through ExplainOutcome::error. Kept only until the
  /// benchmark driver stops assigning it.
  std::string strategy = "greedy";
  /// Retention threshold as a percentage of the instance's gap
  /// normalizer (the Fig. 3 metric: --min-gap 2 keeps cores with a
  /// >= 2% normalized gap). < 0 uses 95% of the witness's own gap —
  /// "the same gap, minus solver noise".
  double min_gap_percent = -1.0;
  /// Tie-break seed for shuffled minimization orders.
  std::uint64_t seed = 1;
  heur::ProbeOptions probe;
  /// Report-only label of where the witness came from.
  std::string source = "witness";
};

struct ExplainOutcome {
  bool ok = false;
  /// Set when !ok ("witness gap below threshold", an unknown strategy).
  std::string error;
  ExplainReport report;
};

/// Explains `witness` (a full leader vector of `instance`).
[[nodiscard]] ExplainOutcome explain_witness(
    const heur::HeuristicInstance& instance,
    const std::vector<double>& witness, const ExplainOptions& options);

}  // namespace metaopt::explain
