// POP client splitting (Appendix A).
//
// The full POP heuristic splits large demands ("clients") into several
// virtual clients before partitioning, so one big demand can draw
// capacity from several partitions. Following the appendix we split a
// demand in half whenever its (split) volume is at least `split_threshold`,
// up to `max_splits` per-client splits: a demand at level l becomes 2^l
// virtual clients of volume d/2^l.
//
//   level(d) = 0                 if d <  T
//            = l in [1, L-1]     if 2^{l-1} T <= d < 2^l T
//            = L                 if d >= 2^{L-1} T
//
// Two implementations with one semantics, as for DP:
//  * client_split / solve_pop_cs — the procedural transform + POP run;
//  * build_pop_cs — the appendix's convex encoding over outer demand
//    variables: one-hot level indicators with big-M activation rows, one
//    flow-variable block per virtual client, partitioned randomly.
#pragma once

#include <cstdint>
#include <vector>

#include "kkt/inner_problem.h"
#include "lp/model.h"
#include "te/demand.h"
#include "te/max_flow.h"
#include "te/path_set.h"
#include "te/pop.h"

namespace metaopt::te {

struct ClientSplitConfig {
  double split_threshold = 500.0;  ///< T (d_th in the appendix)
  int max_splits = 2;              ///< L: at most 2^L virtual clients
  /// Boundary slack for the level-indicator rows (appendix epsilon).
  double epsilon = 1e-3;
};

/// Split level for a concrete volume (see header comment).
int split_level(double volume, const ClientSplitConfig& config);

/// Procedural transform: each demand becomes 2^level copies of volume
/// d / 2^level, in deterministic order (originals in order, copies
/// adjacent).
std::vector<Demand> client_split(const std::vector<Demand>& demands,
                                 const ClientSplitConfig& config);

/// POP with client splitting, procedurally: transform, then partition
/// the virtual clients and solve per partition (one-shot MaxFlowLp,
/// partitions solved cold).
PopResult solve_pop_cs(const net::Topology& topo, const PathSet& paths,
                       const std::vector<double>& volumes,
                       const PopConfig& pop_config,
                       const ClientSplitConfig& cs_config);

/// Same, with every partition solved on `max_flow`, warm-started from
/// `hint` when non-null (an OPT basis of the same input).
PopResult solve_pop_cs(const MaxFlowLp& max_flow,
                       const std::vector<double>& volumes,
                       const PopConfig& pop_config,
                       const ClientSplitConfig& cs_config,
                       const lp::Basis* hint = nullptr);

/// Convex encoding of POP + client splitting over outer demand vars.
struct PopCsEncoding {
  /// level_ind[k][l] is the one-hot binary "demand k sits at level l"
  /// (empty for pairs without variables).
  std::vector<std::vector<lp::Var>> level_ind;
  /// virtual_flow[k][l][i][p]: flow of virtual client i of level l.
  /// Only allocated for included pairs.
  std::vector<std::vector<std::vector<std::vector<lp::Var>>>> virtual_flow;
  /// Partition of virtual-client slots: partition_of[k][l][i].
  std::vector<std::vector<std::vector<int>>> partition_of;
  lp::LinExpr total_flow;
  /// One inner problem per partition (KKT-rewritten independently).
  std::vector<kkt::InnerProblem> partitions;
};

/// Builds the encoding. `demand[k]` must be an outer variable in
/// [0, demand_ub] for included pairs; indicator rows are added to
/// `model`, flow rows to the per-partition inner problems.
PopCsEncoding build_pop_cs(lp::Model& model, const net::Topology& topo,
                           const PathSet& paths,
                           const std::vector<lp::Var>& demand,
                           double demand_ub, const PopConfig& pop_config,
                           const ClientSplitConfig& cs_config,
                           const std::string& prefix = "popcs.",
                           const std::vector<bool>* include = nullptr);

}  // namespace metaopt::te
