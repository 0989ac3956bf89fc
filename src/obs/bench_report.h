// Machine-readable bench reports: BENCH_<name>.json.
//
// A report aggregates a run's wall time, a metrics-snapshot delta, and
// named sample summaries (util::Summary) into one stable JSON document.
// `metaopt explain --bench-out` writes one (the probe economy of a core
// minimization). Schema (version 1, all keys required):
//
//   {
//     "schema_version": 1,
//     "bench": "explain",
//     "git_sha": "<12-hex or 'unknown'>",
//     "timestamp_unix": 1754550000,
//     "config": {"heuristic": "dp", "strategy": "greedy", ...},
//     "wall_seconds": 12.34,
//     "metrics": {"simplex.solves": 123, ...},          // snapshot JSON
//     "summaries": {
//       "probe_gap": {"count":15,"mean":..,"stddev":..,"min":..,
//                     "max":..,"sum":..,"p50":..,"p90":..,"p99":..}
//     }
//   }
//
// tools/check_bench_json.py validates this schema in CI.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/stats.h"

namespace metaopt::obs {

struct BenchReport {
  std::string bench;
  /// Defaults to the compiled-in git SHA (METAOPT_GIT_SHA env overrides).
  std::string git_sha = build_git_sha();
  /// Free-form configuration key/value pairs (serialized as strings).
  std::vector<std::pair<std::string, std::string>> config;
  double wall_seconds = 0.0;
  MetricsSnapshot metrics;
  std::vector<std::pair<std::string, util::Summary>> summaries;

  /// Summarizes `samples` (sort-once) and appends under `name`.
  void add_summary(const std::string& name,
                   const std::vector<double>& samples);

  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path` (parent directories created).
  void write(const std::string& path) const;

  /// The git SHA baked in at configure time, overridable with the
  /// METAOPT_GIT_SHA environment variable; "unknown" as a last resort.
  static std::string build_git_sha();
};

}  // namespace metaopt::obs
