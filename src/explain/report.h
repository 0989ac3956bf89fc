// Rendering of explain outcomes: human-readable gap reports and the
// schema-v1 BENCH_explain.json payload.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "explain/cluster.h"
#include "explain/core_minimizer.h"
#include "heur/instance.h"

namespace metaopt::explain {

/// Everything the renderers consume about one explained witness.
struct ExplainReport {
  std::string heuristic;
  /// Where the witness came from ("find", "path:job=N").
  std::string source;
  /// Maskable elements of the instance and how many the witness uses.
  int num_elements = 0;
  int support_size = 0;
  /// Gap of the full witness sub-instance (all support kept).
  double witness_gap = 0.0;
  double witness_norm_gap = 0.0;
  /// Absolute gap threshold the core had to retain.
  double threshold = 0.0;
  CoreResult core;
  /// core_names[i] names core.core[i] (instance core_element_name).
  std::vector<std::string> core_names;
  /// Witness values of the core elements' leader variables, flattened
  /// in core order (printing only).
  std::vector<std::vector<double>> core_values;
  /// Domain breakdown of the *core* sub-instance.
  heur::SolutionBreakdown breakdown;
  long probes = 0;
  long cache_hits = 0;
  bool all_certified = false;
  std::vector<double> probe_gaps;
  double wall_seconds = 0.0;
  /// Campaign regions (empty when explaining a single witness).
  std::vector<Region> regions;
};

/// Multi-line human-readable report (CLI stdout).
[[nodiscard]] std::string render_text(const ExplainReport& report);

/// Config pairs + summary samples for bench::write_bench_report /
/// obs::BenchReport — one place defines what BENCH_explain.json says.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
bench_config(const ExplainReport& report);
[[nodiscard]] std::vector<std::pair<std::string, std::vector<double>>>
bench_summaries(const ExplainReport& report);

}  // namespace metaopt::explain
