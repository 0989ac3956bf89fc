// Partitioned Optimization Problems (POP, Eq. 6).
//
// POP divides the demand pairs uniformly at random into `num_partitions`
// disjoint subsets, gives every partition a 1/num_partitions share of
// each edge capacity, and solves OptMaxFlow independently per partition
// (each partition is a bound change on one MaxFlowLp).
// The heuristic value is the sum of the per-partition optima.
//
// Because partitioning is random, POP(I) is a random variable (§3.2):
// the adversarial search targets either the empirical mean over several
// instantiations or a tail order statistic (see core/pop_objective and
// core/sorting_network).
#pragma once

#include <cstdint>
#include <vector>

#include "kkt/inner_problem.h"
#include "lp/model.h"
#include "te/max_flow.h"
#include "te/path_set.h"
#include "util/rng.h"

namespace metaopt::te {

struct PopConfig {
  int num_partitions = 2;
  /// Seed of the partition instantiation.
  std::uint64_t seed = 1;
  /// Multiplier on the analytic KKT dual bounds (<= 0 disables).
  double dual_bound_scale = 1.0;
  /// Certify every per-partition LP in the procedural solver and record
  /// the verdict in PopResult::certified (encoding builders ignore it).
  bool certify = lp::kCertifyByDefault;
};

/// Assigns each of `num_demands` indices to one of `c` partitions
/// uniformly at random (balanced: a random permutation dealt round-robin,
/// matching POP's equal-size partitions).
std::vector<int> random_partition(int num_demands, int c, util::Rng& rng);

/// Result of a direct POP solve (one instantiation).
struct PopResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  double total_flow = 0.0;
  std::vector<double> per_partition_flow;
  /// True when every per-partition LP ran with certification and passed.
  bool certified = false;
};

/// Runs POP procedurally: solves one LP per partition and sums (one-shot
/// MaxFlowLp, partitions solved cold).
PopResult solve_pop(const net::Topology& topo, const PathSet& paths,
                    const std::vector<double>& volumes,
                    const PopConfig& config);

/// Same, with every partition solved on `max_flow` (include mask + 1/c
/// capacity scale as bounds), warm-started from `hint` when non-null
/// (PopGapOracle passes the OPT basis of the same input).
PopResult solve_pop(const MaxFlowLp& max_flow,
                    const std::vector<double>& volumes,
                    const PopConfig& config, const lp::Basis* hint = nullptr);

/// The convex encoding of one POP instantiation: an independent
/// OptMaxFlow inner problem per partition (each later KKT-rewritten on
/// its own). total_flow sums all partitions.
struct PopEncoding {
  std::vector<int> assignment;  ///< demand index -> partition
  std::vector<FlowEncoding> partitions;
  lp::LinExpr total_flow;
};

/// Builds the encoding over outer demand expressions.
PopEncoding build_pop(lp::Model& model, const net::Topology& topo,
                      const PathSet& paths,
                      const std::vector<lp::LinExpr>& demand,
                      const PopConfig& config, const std::string& prefix = "pop.");

}  // namespace metaopt::te
