#include "te/pop.h"

#include <numeric>
#include <stdexcept>

namespace metaopt::te {

std::vector<int> random_partition(int num_demands, int c, util::Rng& rng) {
  if (c < 1) throw std::invalid_argument("random_partition: c >= 1 required");
  std::vector<int> order(num_demands);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<int> assignment(num_demands, 0);
  for (int i = 0; i < num_demands; ++i) assignment[order[i]] = i % c;
  return assignment;
}

PopResult solve_pop(const net::Topology& topo, const PathSet& paths,
                    const std::vector<double>& volumes,
                    const PopConfig& config) {
  return solve_pop(MaxFlowLp(topo, paths), volumes, config);
}

PopResult solve_pop(const MaxFlowLp& max_flow,
                    const std::vector<double>& volumes,
                    const PopConfig& config, const lp::Basis* hint) {
  const PathSet& paths = max_flow.paths();
  if (volumes.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("solve_pop: volume size mismatch");
  }
  util::Rng rng(config.seed);
  const std::vector<int> assignment =
      random_partition(paths.num_pairs(), config.num_partitions, rng);

  PopResult result;
  result.per_partition_flow.resize(config.num_partitions, 0.0);
  result.certified = true;
  for (int part = 0; part < config.num_partitions; ++part) {
    std::vector<bool> include(paths.num_pairs(), false);
    for (int k = 0; k < paths.num_pairs(); ++k) {
      include[k] = assignment[k] == part;
    }
    MaxFlowOptions options;
    options.include = &include;
    options.capacity_scale = 1.0 / config.num_partitions;
    options.certify = config.certify;
    const MaxFlowResult part_result =
        max_flow.solve(volumes, options, hint);
    if (part_result.status != lp::SolveStatus::Optimal) {
      result.status = part_result.status;
      result.certified = false;
      return result;
    }
    result.certified = result.certified && part_result.certified;
    result.per_partition_flow[part] = part_result.total_flow;
    result.total_flow += part_result.total_flow;
  }
  result.status = lp::SolveStatus::Optimal;
  return result;
}

PopEncoding build_pop(lp::Model& model, const net::Topology& topo,
                      const PathSet& paths,
                      const std::vector<lp::LinExpr>& demand,
                      const PopConfig& config, const std::string& prefix) {
  util::Rng rng(config.seed);
  PopEncoding enc;
  enc.assignment =
      random_partition(paths.num_pairs(), config.num_partitions, rng);
  enc.partitions.reserve(config.num_partitions);
  for (int part = 0; part < config.num_partitions; ++part) {
    // Each partition owns its own include mask; keep it alive via a
    // per-partition local (build_max_flow only reads it during the call).
    std::vector<bool> include(paths.num_pairs(), false);
    for (int k = 0; k < paths.num_pairs(); ++k) {
      include[k] = enc.assignment[k] == part;
    }
    MaxFlowOptions options;
    options.include = &include;
    options.capacity_scale = 1.0 / config.num_partitions;
    options.dual_bound_scale = config.dual_bound_scale;
    enc.partitions.push_back(
        build_max_flow(model, topo, paths, demand,
                       prefix + "p" + std::to_string(part) + ".", options));
    enc.total_flow += enc.partitions.back().total_flow;
  }
  return enc;
}

}  // namespace metaopt::te
