// Shared helpers for the per-figure benchmark binaries.
//
// Every bench prints google-benchmark rows (one iteration per experiment
// configuration, gap metrics as counters) and appends plot-ready CSV rows
// to bench_results/<figure>.csv: `figure,series,x,y,extra`.
//
// Budgets scale with the METAOPT_BENCH_SCALE environment variable
// (default 1.0) so a quick smoke run is `METAOPT_BENCH_SCALE=0.1 ./fig3...`.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/topologies.h"
#include "obs/obs.h"
#include "te/demand.h"
#include "te/path_set.h"
#include "util/csv.h"

namespace metaopt::bench {

inline double budget_scale() {
  if (const char* env = std::getenv("METAOPT_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

inline double scaled(double seconds) { return seconds * budget_scale(); }

/// Worker threads for sweep-based benches: METAOPT_BENCH_THREADS, or all
/// hardware threads by default.
inline int bench_threads() {
  if (const char* env = std::getenv("METAOPT_BENCH_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// CSV sink under bench_results/ (created on demand).
inline util::CsvWriter csv(const std::string& figure) {
  std::filesystem::create_directories("bench_results");
  return util::CsvWriter("bench_results/" + figure + ".csv",
                         "figure,series,x,y,extra");
}

/// Turns obs recording on for this bench and returns the baseline
/// metrics snapshot to diff against in write_bench_report().
inline obs::MetricsSnapshot obs_begin() {
  obs::set_enabled(true);
  return obs::snapshot();
}

/// Emits bench_results/BENCH_<figure>.json (schema v1; validated by
/// tools/check_bench_json.py in CI). `summaries` holds named raw sample
/// vectors — summarized here so every bench reports the same statistics.
/// When METAOPT_BENCH_TRACE names a file, the span trace also lands
/// there as Chrome-trace JSON.
inline void write_bench_report(
    const std::string& figure, const obs::MetricsSnapshot& baseline,
    double wall_seconds,
    std::vector<std::pair<std::string, std::string>> config,
    const std::vector<std::pair<std::string, std::vector<double>>>&
        summaries) {
  obs::BenchReport report;
  report.bench = figure;
  report.config = std::move(config);
  report.wall_seconds = wall_seconds;
  report.metrics = obs::diff(baseline, obs::snapshot());
  for (const auto& [name, samples] : summaries) {
    report.add_summary(name, samples);
  }
  std::filesystem::create_directories("bench_results");
  report.write("bench_results/BENCH_" + figure + ".json");
  if (const char* env = std::getenv("METAOPT_BENCH_TRACE")) {
    if (*env != '\0') obs::write_chrome_trace(env);
  }
}

}  // namespace metaopt::bench
