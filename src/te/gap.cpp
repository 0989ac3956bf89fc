#include "te/gap.h"

#include "util/stats.h"

namespace metaopt::te {

DpGapOracle::Solves DpGapOracle::solve(
    const std::vector<double>& volumes) const {
  Solves solves;
  MaxFlowOptions mf;
  mf.certify = config_.certify;
  solves.opt = lp_.solve(volumes, mf);
  if (solves.opt.status != lp::SolveStatus::Optimal) return solves;
  solves.dp =
      solve_demand_pinning(lp_, volumes, config_, solves.opt.basis.get());
  return solves;
}

heur::GapResult DpGapOracle::evaluate(
    const std::vector<double>& volumes) const {
  count_evaluation();
  heur::GapResult result;
  const auto [opt, dp] = solve(volumes);
  if (opt.status != lp::SolveStatus::Optimal) {
    result.status = opt.status;
    return result;
  }
  result.opt = opt.total_flow;
  result.status = dp.status;
  result.heuristic_feasible = dp.feasible;
  result.heur = dp.total_flow;
  // An infeasible heuristic side involves no residual LP; the OPT
  // verdict alone backs the evaluation then.
  result.certified = opt.certified && (!dp.feasible || dp.certified);
  return result;
}

heur::GapResult PopGapOracle::evaluate(
    const std::vector<double>& volumes) const {
  count_evaluation();
  heur::GapResult result;
  MaxFlowOptions mf;
  mf.certify = config_.certify;
  const MaxFlowResult opt = lp_.solve(volumes, mf);
  if (opt.status != lp::SolveStatus::Optimal) {
    result.status = opt.status;
    return result;
  }
  result.opt = opt.total_flow;
  bool heur_certified = true;
  const std::vector<double> values =
      per_instance_heur(volumes, &heur_certified);
  if (values.size() != seeds_.size()) {
    result.status = lp::SolveStatus::Error;
    return result;
  }
  result.heur = util::mean(values);
  result.heuristic_feasible = true;  // POP is feasible for any demand
  result.status = lp::SolveStatus::Optimal;
  result.certified = opt.certified && heur_certified;
  return result;
}

std::vector<double> PopGapOracle::per_instance_heur(
    const std::vector<double>& volumes, bool* certified) const {
  std::vector<double> values;
  values.reserve(seeds_.size());
  for (const std::uint64_t seed : seeds_) {
    PopConfig config = config_;
    config.seed = seed;
    const PopResult pop = solve_pop(lp_, volumes, config);
    if (pop.status != lp::SolveStatus::Optimal) return {};
    if (certified != nullptr) *certified = *certified && pop.certified;
    values.push_back(pop.total_flow);
  }
  return values;
}

}  // namespace metaopt::te
