#include "core/gap_bound.h"

#include "kkt/primal_dual.h"
#include "te/max_flow.h"
#include "util/stopwatch.h"

namespace metaopt::core {

namespace {

using lp::LinExpr;
using lp::Model;

GapBoundResult finish(Model& model, const net::Topology& topo,
                      const AdversarialOptions& options,
                      util::Stopwatch& watch) {
  GapBoundResult result;
  result.stats = model.stats();
  mip::MipOptions mip = options.mip;
  const lp::Solution sol = mip::BranchAndBound(mip).solve(model);
  result.status = sol.status;
  // best_bound is the proven bound even when stopped early; for proven
  // Optimal it equals the objective.
  result.upper_bound =
      sol.status == lp::SolveStatus::Optimal ? sol.objective : sol.best_bound;
  result.normalized_upper_bound = result.upper_bound / topo.total_capacity();
  result.certified = sol.certified;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace

GapBoundResult GapBounder::bound_dp_gap(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  util::Stopwatch watch;
  Model model;
  DemandVars d = make_demand_vars(model, topo_, paths_, options);

  te::DpConfig dp_config = config;
  if (dp_config.demand_ub <= 0.0) dp_config.demand_ub = d.ub;

  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  te::FlowEncoding opt_enc =
      te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
  const kkt::PrimalDualArtifacts opt_art =
      kkt::emit_primal_dual(model, opt_enc.inner, "opt.");

  te::DpEncoding dp_enc = te::build_demand_pinning(
      model, topo_, paths_, d.vars, dp_config, "dp.", &d.include);
  const kkt::PrimalDualArtifacts dp_art =
      kkt::emit_primal_dual(model, dp_enc.inner, "dp.");

  apply_input_constraints(model, d.vars, options.constraints, d.ub);
  model.set_objective(lp::ObjSense::Maximize,
                      opt_art.objective_expr - dp_art.objective_expr);
  return finish(model, topo_, options, watch);
}

GapBoundResult GapBounder::bound_pop_gap(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  util::Stopwatch watch;
  Model model;
  DemandVars d = make_demand_vars(model, topo_, paths_, options);

  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  te::FlowEncoding opt_enc =
      te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
  const kkt::PrimalDualArtifacts opt_art =
      kkt::emit_primal_dual(model, opt_enc.inner, "opt.");

  LinExpr heur_mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst_config = config;
    inst_config.seed = seeds[r];
    te::PopEncoding enc = te::build_pop(model, topo_, paths_, d.exprs,
                                        inst_config,
                                        "pop" + std::to_string(r) + ".");
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      kkt::emit_primal_dual(model, enc.partitions[part].inner,
                            "pop" + std::to_string(r) + "." +
                                std::to_string(part) + ".");
    }
    heur_mean +=
        (1.0 / static_cast<double>(seeds.size())) * enc.total_flow;
  }

  apply_input_constraints(model, d.vars, options.constraints, d.ub);
  model.set_objective(lp::ObjSense::Maximize,
                      opt_art.objective_expr - heur_mean);
  return finish(model, topo_, options, watch);
}

}  // namespace metaopt::core
