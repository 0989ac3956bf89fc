#include "find_te_model.h"

#include <string>
#include <vector>

#include "core/adversarial.h"
#include "kkt/kkt_rewriter.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/pop.h"

namespace metaopt::testmodels {

using lp::LinExpr;
using lp::Model;

Model find_te_model(const domains::TeInstanceBase& te) {
  Model model;
  core::AdversarialOptions options;
  options.demand_ub = te.leader_ub();
  options.pair_mask = te.pair_mask();
  const core::DemandVars d =
      core::make_demand_vars(model, te.topology(), te.paths(), options);
  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  const te::FlowEncoding opt = te::build_max_flow(
      model, te.topology(), te.paths(), d.exprs, "opt.", opt_options);
  const kkt::KktArtifacts opt_kkt = kkt::emit_kkt(model, opt.inner, "opt.");
  LinExpr heur;
  if (const auto* pop = dynamic_cast<const domains::TePopInstance*>(&te)) {
    std::vector<te::PopEncoding> encodings;
    encodings.reserve(pop->seeds().size());
    for (std::size_t r = 0; r < pop->seeds().size(); ++r) {
      te::PopConfig config;
      config.num_partitions = 2;
      config.seed = pop->seeds()[r];
      const std::string prefix = "pop" + std::to_string(r) + ".";
      encodings.push_back(te::build_pop(model, te.topology(), te.paths(),
                                        d.exprs, config, prefix));
      const te::PopEncoding& enc = encodings.back();
      for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
        (void)kkt::emit_kkt(model, enc.partitions[part].inner,
                            prefix + std::to_string(part) + ".");
      }
      heur += (1.0 / static_cast<double>(pop->seeds().size())) *
              enc.total_flow;
    }
  } else {
    te::DpConfig config;
    config.threshold = 50.0;
    config.demand_ub = d.ub;
    const te::DpEncoding dp = te::build_demand_pinning(
        model, te.topology(), te.paths(), d.vars, config, "dp.", &d.include);
    heur = kkt::emit_kkt(model, dp.inner, "dp.").objective_expr;
  }
  model.set_objective(lp::ObjSense::Maximize, opt_kkt.objective_expr - heur);
  return model;
}

}  // namespace metaopt::testmodels
