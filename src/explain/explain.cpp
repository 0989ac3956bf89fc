#include "explain/explain.h"

#include <utility>

#include "explain/core_minimizer.h"
#include "explain/probe.h"
#include "obs/obs.h"
#include "util/stopwatch.h"

namespace metaopt::explain {

namespace {

const obs::Histogram h_explain_ns = obs::histogram("explain.witness_ns");

}  // namespace

ExplainOutcome explain_witness(const heur::HeuristicInstance& instance,
                               const std::vector<double>& witness,
                               const ExplainOptions& options) {
  MO_SPAN_HIST("explain.witness", h_explain_ns);
  const util::Stopwatch watch;

  ExplainOutcome outcome;
  ExplainReport& report = outcome.report;
  report.heuristic = instance.name();
  report.source = options.source;
  report.num_elements = instance.num_core_elements();

  if (options.strategy != "greedy") {
    outcome.error = "unknown core-minimizer strategy '" + options.strategy +
                    "' (the only one is greedy)";
    return outcome;
  }

  ProbeContext ctx(instance, witness, options.probe);
  report.support_size = static_cast<int>(ctx.support().size());

  const ProbeOutcome full = ctx.probe(ctx.support());
  report.witness_gap = full.gap;
  const double normalizer = instance.gap_normalizer();
  report.witness_norm_gap = normalizer > 0.0 ? full.gap / normalizer : 0.0;

  MinimizeOptions minimize;
  minimize.seed = options.seed;
  minimize.min_gap = options.min_gap_percent >= 0.0
                         ? options.min_gap_percent / 100.0 * normalizer
                         : 0.95 * full.gap;
  report.threshold = minimize.min_gap;

  if (full.gap <= 0.0 || full.gap < minimize.min_gap) {
    report.probes = ctx.probes();
    report.cache_hits = ctx.cache_hits();
    report.all_certified = ctx.all_certified();
    report.probe_gaps = ctx.probe_gaps();
    report.wall_seconds = watch.seconds();
    outcome.error = "witness gap " + std::to_string(full.gap) +
                    " is below the retention threshold " +
                    std::to_string(minimize.min_gap) +
                    " — nothing to explain";
    return outcome;
  }

  report.core = minimize_core(ctx, minimize);
  for (const int e : report.core.core) {
    report.core_names.push_back(instance.core_element_name(e));
    std::vector<double> values;
    for (const int v : instance.core_element_vars(e)) {
      values.push_back(witness[v]);
    }
    report.core_values.push_back(std::move(values));
  }

  report.breakdown =
      instance.explain_solution(ctx.masked_vector(report.core.core),
                                options.probe);
  report.probes = ctx.probes();
  report.cache_hits = ctx.cache_hits();
  report.all_certified = ctx.all_certified();
  report.probe_gaps = ctx.probe_gaps();
  report.wall_seconds = watch.seconds();
  outcome.ok = true;
  return outcome;
}

}  // namespace metaopt::explain
