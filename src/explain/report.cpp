#include "explain/report.h"

#include <cstdio>
#include <sstream>

namespace metaopt::explain {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string pct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%%", v * 100.0);
  return buf;
}

}  // namespace

std::string render_text(const ExplainReport& report) {
  std::ostringstream out;
  out << "gap explanation: heuristic=" << report.heuristic
      << " source=" << report.source << " strategy=" << report.strategy
      << "\n";
  out << "  witness: gap=" << fmt(report.witness_gap)
      << " (normalized " << pct(report.witness_norm_gap) << "), support "
      << report.support_size << " of " << report.num_elements
      << " elements\n";
  out << "  threshold: core must retain gap >= " << fmt(report.threshold)
      << "\n";
  out << "  core: " << report.core.core.size() << " of "
      << report.support_size << " elements, gap=" << fmt(report.core.gap)
      << " (" << pct(report.witness_gap > 0.0
                         ? report.core.gap / report.witness_gap
                         : 0.0)
      << " of witness gap), "
      << (report.core.minimal ? "verified 1-minimal" : "NOT minimal") << "\n";
  out << "  probes: " << report.probes << " exact re-solves ("
      << report.cache_hits << " cache hits), "
      << (report.all_certified ? "all certified" : "NOT all certified")
      << "\n";

  for (std::size_t i = 0; i < report.core.core.size(); ++i) {
    out << "    [" << report.core.core[i] << "] "
        << (i < report.core_names.size() ? report.core_names[i] : "?");
    if (i < report.core_values.size()) {
      out << " =";
      for (const double v : report.core_values[i]) out << " " << fmt(v);
    }
    out << "\n";
  }

  if (report.breakdown.available) {
    out << "  saturation (core sub-instance, heuristic vs opt"
        << (report.breakdown.certified ? ", certified" : "") << "):\n";
    for (const heur::SaturationRow& row : report.breakdown.rows) {
      out << "    " << row.name << ": cap=" << fmt(row.capacity)
          << " heur=" << fmt(row.heur_load) << " opt=" << fmt(row.opt_load);
      if (row.capacity > 0.0 && row.heur_load >= row.capacity - 1e-9) {
        out << "  <-- saturated under heuristic";
      }
      out << "\n";
    }
    for (const heur::ElementNote& note : report.breakdown.notes) {
      out << "    element[" << note.element << "]: " << note.note << "\n";
    }
  }

  if (!report.regions.empty()) {
    out << "  regions (" << report.regions.size() << " gap-inducing):\n";
    for (const Region& region : report.regions) {
      out << "    " << region.heuristic << " @ " << region.axis << ": "
          << region.jobs << "/" << region.total_jobs
          << " jobs, max norm gap " << pct(region.max_norm_gap)
          << ", mean " << pct(region.mean_norm_gap) << ", rep job "
          << region.rep.spec.id << "\n";
    }
  }
  return out.str();
}

std::vector<std::pair<std::string, std::string>> bench_config(
    const ExplainReport& report) {
  return {
      {"heuristic", report.heuristic},
      {"source", report.source},
      {"strategy", report.strategy},
      {"elements", std::to_string(report.num_elements)},
      {"support", std::to_string(report.support_size)},
      {"core_size", std::to_string(report.core.core.size())},
      {"witness_gap", fmt(report.witness_gap)},
      {"core_gap", fmt(report.core.gap)},
      {"threshold", fmt(report.threshold)},
      {"minimal", report.core.minimal ? "true" : "false"},
      {"certified", report.all_certified ? "true" : "false"},
      {"probes", std::to_string(report.probes)},
      {"cache_hits", std::to_string(report.cache_hits)},
      {"regions", std::to_string(report.regions.size())},
  };
}

std::vector<std::pair<std::string, std::vector<double>>> bench_summaries(
    const ExplainReport& report) {
  std::vector<std::pair<std::string, std::vector<double>>> summaries;
  summaries.emplace_back("probe_gap", report.probe_gaps);
  summaries.emplace_back(
      "core_size",
      std::vector<double>{static_cast<double>(report.core.core.size())});
  summaries.emplace_back(
      "core_gap_retained",
      std::vector<double>{report.witness_gap > 0.0
                              ? report.core.gap / report.witness_gap
                              : 0.0});
  return summaries;
}

}  // namespace metaopt::explain
