#include "te/client_split.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace metaopt::te {

namespace {

/// Deterministic slot -> partition assignment shared by the procedural
/// solver and the encoding: enumerate every (pair, level, copy) slot of
/// the eligible pairs in order and deal a shuffled round-robin.
std::vector<std::vector<std::vector<int>>> assign_slots(
    const PathSet& paths, const std::vector<bool>* include, int max_splits,
    int num_partitions, std::uint64_t seed) {
  std::vector<std::vector<std::vector<int>>> partition_of(paths.num_pairs());
  int total_slots = 0;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (paths.paths(k).empty()) continue;
    if (include && !(*include)[k]) continue;
    partition_of[k].resize(max_splits + 1);
    for (int level = 0; level <= max_splits; ++level) {
      partition_of[k][level].assign(1 << level, -1);
      total_slots += 1 << level;
    }
  }
  util::Rng rng(seed);
  const std::vector<int> assignment =
      random_partition(total_slots, num_partitions, rng);
  int next = 0;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    for (auto& level : partition_of[k]) {
      for (int& slot : level) slot = assignment[next++];
    }
  }
  return partition_of;
}

}  // namespace

int split_level(double volume, const ClientSplitConfig& config) {
  if (volume < config.split_threshold) return 0;
  int level = 1;
  while (level < config.max_splits &&
         volume >= std::ldexp(config.split_threshold, level)) {
    ++level;
  }
  return level;
}

std::vector<Demand> client_split(const std::vector<Demand>& demands,
                                 const ClientSplitConfig& config) {
  std::vector<Demand> out;
  for (const Demand& d : demands) {
    const int level = split_level(d.volume, config);
    const int copies = 1 << level;
    const double share = d.volume / copies;
    for (int i = 0; i < copies; ++i) {
      out.push_back(Demand{d.src, d.dst, share});
    }
  }
  return out;
}

PopResult solve_pop_cs(const net::Topology& topo, const PathSet& paths,
                       const std::vector<double>& volumes,
                       const PopConfig& pop_config,
                       const ClientSplitConfig& cs_config) {
  return solve_pop_cs(MaxFlowLp(topo, paths), volumes, pop_config, cs_config);
}

PopResult solve_pop_cs(const MaxFlowLp& max_flow,
                       const std::vector<double>& volumes,
                       const PopConfig& pop_config,
                       const ClientSplitConfig& cs_config,
                       const lp::Basis* hint) {
  const PathSet& paths = max_flow.paths();
  if (volumes.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("solve_pop_cs: volume size mismatch");
  }
  const auto partition_of =
      assign_slots(paths, nullptr, cs_config.max_splits,
                   pop_config.num_partitions, pop_config.seed);

  PopResult result;
  result.per_partition_flow.resize(pop_config.num_partitions, 0.0);
  for (int part = 0; part < pop_config.num_partitions; ++part) {
    // Virtual clients of one pair landing in the same partition are
    // interchangeable commodities: aggregate their volumes.
    std::vector<double> part_volumes(paths.num_pairs(), 0.0);
    std::vector<bool> include(paths.num_pairs(), false);
    for (int k = 0; k < paths.num_pairs(); ++k) {
      if (partition_of[k].empty()) continue;
      const int level = split_level(volumes[k], cs_config);
      const double share = volumes[k] / (1 << level);
      for (int i = 0; i < (1 << level); ++i) {
        if (partition_of[k][level][i] == part) {
          part_volumes[k] += share;
          include[k] = true;
        }
      }
    }
    MaxFlowOptions options;
    options.include = &include;
    options.capacity_scale = 1.0 / pop_config.num_partitions;
    const MaxFlowResult part_result =
        max_flow.solve(part_volumes, options, hint);
    if (part_result.status != lp::SolveStatus::Optimal) {
      result.status = part_result.status;
      return result;
    }
    result.per_partition_flow[part] = part_result.total_flow;
    result.total_flow += part_result.total_flow;
  }
  result.status = lp::SolveStatus::Optimal;
  return result;
}

PopCsEncoding build_pop_cs(lp::Model& model, const net::Topology& topo,
                           const PathSet& paths,
                           const std::vector<lp::Var>& demand,
                           double demand_ub, const PopConfig& pop_config,
                           const ClientSplitConfig& cs_config,
                           const std::string& prefix,
                           const std::vector<bool>* include) {
  if (demand.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("build_pop_cs: demand size mismatch");
  }
  const int L = cs_config.max_splits;
  const double T = cs_config.split_threshold;
  PopCsEncoding enc;
  enc.partition_of = assign_slots(paths, include, L,
                                  pop_config.num_partitions, pop_config.seed);
  enc.level_ind.resize(paths.num_pairs());
  enc.virtual_flow.resize(paths.num_pairs());
  for (int p = 0; p < pop_config.num_partitions; ++p) {
    enc.partitions.emplace_back(lp::ObjSense::Maximize);
  }

  const int max_hops = paths.max_hops();
  const double bound_dual = kFlowDualBound * (max_hops + 1.0);
  for (auto& inner : enc.partitions) inner.set_bound_dual_bound(bound_dual);

  // Per-partition capacity loads accumulated while creating flow vars.
  std::vector<std::vector<lp::LinExpr>> edge_load(
      pop_config.num_partitions,
      std::vector<lp::LinExpr>(topo.num_edges()));
  std::vector<std::vector<bool>> edge_used(
      pop_config.num_partitions, std::vector<bool>(topo.num_edges(), false));
  std::vector<lp::LinExpr> partition_obj(pop_config.num_partitions);

  const double big_m_d = demand_ub + std::ldexp(T, L) + 1.0;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (enc.partition_of[k].empty()) continue;
    const lp::Var d = demand[k];
    const std::string kk = std::to_string(k);

    // One-hot level indicators with big-M activation windows:
    //   level 0:        d <  T
    //   level l in 1..L-1:  2^{l-1} T <= d < 2^l T
    //   level L:        d >= 2^{L-1} T
    lp::LinExpr one_hot;
    enc.level_ind[k].reserve(L + 1);
    for (int level = 0; level <= L; ++level) {
      const lp::Var z = model.add_binary(prefix + "lvl[" + kk + "," +
                                         std::to_string(level) + "]");
      enc.level_ind[k].push_back(z);
      one_hot += lp::LinExpr(z);
      if (level >= 1) {
        const double lo = std::ldexp(T, level - 1);
        model.add_constraint(
            lp::LinExpr(d) >= lp::LinExpr(lo) - big_m_d * (1.0 - lp::LinExpr(z)),
            prefix + "lvl_lo[" + kk + "," + std::to_string(level) + "]");
      }
      if (level < L) {
        const double hi = std::ldexp(T, level);
        model.add_constraint(
            lp::LinExpr(d) <= lp::LinExpr(hi - kIndicatorEpsilon) +
                                  big_m_d * (1.0 - lp::LinExpr(z)),
            prefix + "lvl_hi[" + kk + "," + std::to_string(level) + "]");
      }
    }
    model.add_constraint(one_hot == lp::LinExpr(1.0),
                         prefix + "lvl_onehot[" + kk + "]");

    // Virtual-client flow blocks.
    enc.virtual_flow[k].resize(L + 1);
    for (int level = 0; level <= L; ++level) {
      const int copies = 1 << level;
      enc.virtual_flow[k][level].resize(copies);
      const double act_m = demand_ub / copies;
      for (int i = 0; i < copies; ++i) {
        const int part = enc.partition_of[k][level][i];
        kkt::InnerProblem& inner = enc.partitions[part];
        lp::LinExpr flow_sum;
        const auto& plist = paths.paths(k);
        for (std::size_t p = 0; p < plist.size(); ++p) {
          const lp::Var f = model.add_var(
              prefix + "f[" + kk + "," + std::to_string(level) + "," +
              std::to_string(i) + "," + std::to_string(p) + "]");
          inner.add_decision_var(f);
          enc.virtual_flow[k][level][i].push_back(f);
          flow_sum += f;
          enc.total_flow += f;
          partition_obj[part] += f;
          for (net::EdgeId e : plist[p].edges) {
            edge_load[part][e] += f;
            edge_used[part][e] = true;
          }
        }
        // Volume: flow of one virtual client <= d / 2^level.
        inner.add_constraint(
            flow_sum <= (1.0 / copies) * lp::LinExpr(d),
            prefix + "vvol[" + kk + "," + std::to_string(level) + "," +
                std::to_string(i) + "]",
            kFlowDualBound);
        // Activation: zero unless this level is active.
        inner.add_constraint(
            flow_sum <= act_m * lp::LinExpr(enc.level_ind[k][level]),
            prefix + "vact[" + kk + "," + std::to_string(level) + "," +
                std::to_string(i) + "]",
            kFlowDualBound);
      }
    }
  }

  for (int part = 0; part < pop_config.num_partitions; ++part) {
    for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
      if (!edge_used[part][e]) continue;
      enc.partitions[part].add_constraint(
          edge_load[part][e] <=
              lp::LinExpr(topo.edge(e).capacity / pop_config.num_partitions),
          prefix + "cap[" + std::to_string(part) + "," + std::to_string(e) +
              "]",
          kFlowDualBound);
    }
    enc.partitions[part].set_objective(partition_obj[part]);
  }
  return enc;
}

}  // namespace metaopt::te
