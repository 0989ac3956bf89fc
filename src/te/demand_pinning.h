// Demand Pinning (Eq. 4 / Eq. 5): the production heuristic that routes
// every demand at or below a threshold onto its shortest path, then
// jointly routes the rest.
//
// Two implementations with one semantics:
//  * solve_demand_pinning — the procedural heuristic exactly as deployed:
//    pin, subtract capacity, solve the residual LP (a bound change on a
//    MaxFlowLp). Detects the §5 infeasibility mode (pinned flows
//    oversubscribing a link).
//  * build_demand_pinning — the convex encoding of §3.2 for the
//    white-box search: an outer indicator b_k ∈ {0,1} with big-M rows
//    enforcing b_k = 1 ⇔ d_k <= T_d, plus inner big-M rows forcing
//    non-shortest flows to zero and the shortest-path flow to d_k when
//    pinned (the max(M(d_k - T_d), 0) trick in indicator form). Demands
//    in (T_d, T_d + kIndicatorEpsilon) may take either side
//    (te/demand.h).
#pragma once

#include <string>
#include <vector>

#include "kkt/inner_problem.h"
#include "lp/model.h"
#include "te/demand.h"
#include "te/max_flow.h"
#include "te/path_set.h"

namespace metaopt::te {

struct DpConfig {
  /// Pinning threshold T_d. Demands with d_k <= threshold are pinned
  /// ("at or below", matching Fig. 1 where the demand sits exactly at
  /// the threshold and is pinned).
  double threshold = 50.0;
  /// Upper bound on any single demand volume (sizes the big-M constants
  /// of the indicator rows). Defaults to the max link capacity when 0.
  double demand_ub = 0.0;
  /// Certify the residual LP inside the procedural solver and record
  /// the verdict in DpResult::certified (the encoding builders ignore
  /// this). Defaults to the solver-wide policy; explain probes force it.
  bool certify = lp::kCertifyByDefault;
};

/// Result of the procedural heuristic.
struct DpResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  /// False when pinned flows oversubscribe some link (§5): the heuristic
  /// has no feasible allocation for this input.
  bool feasible = false;
  double total_flow = 0.0;   ///< pinned + residual carried flow
  double pinned_flow = 0.0;  ///< flow pre-allocated on shortest paths
  int num_pinned = 0;
  /// pinned[k]: demand k was at or below the threshold (size num_pairs,
  /// filled even on infeasible inputs — it names the culprits).
  std::vector<bool> pinned;
  /// Per-edge load of the heuristic's allocation, pinned + residual
  /// (size num_edges; empty when infeasible) — the saturation side of a
  /// gap report.
  std::vector<double> edge_load;
  /// True when the residual LP ran with certification and passed.
  bool certified = false;
};

/// Runs Demand Pinning procedurally on concrete volumes (one-shot
/// MaxFlowLp, residual LP solved cold from its greedy start).
DpResult solve_demand_pinning(const net::Topology& topo, const PathSet& paths,
                              const std::vector<double>& volumes,
                              const DpConfig& config);

/// Same, with the residual LP solved on `max_flow`, warm-started from `hint`
/// when non-null (DpGapOracle passes the OPT basis of the same input).
DpResult solve_demand_pinning(const MaxFlowLp& max_flow,
                              const std::vector<double>& volumes,
                              const DpConfig& config,
                              const lp::Basis* hint = nullptr);

/// The convex encoding over outer demand variables.
struct DpEncoding {
  /// pin[k] is the indicator b_k (invalid Var for pairs without paths).
  std::vector<lp::Var> pin;
  std::vector<std::vector<lp::Var>> path_flow;
  lp::LinExpr total_flow;
  kkt::InnerProblem inner;  ///< the heuristic LP given (d, b)

  DpEncoding() : inner(lp::ObjSense::Maximize) {}
};

/// Builds the DP encoding: indicator rows go straight into `model`
/// (they relate outer variables b and d), flow rows into the returned
/// InnerProblem. `demand[k]` must be an outer variable in [0, demand_ub]
/// for every included pair (entries of excluded pairs are never read).
/// `include` optionally restricts the demand support (nullptr = all).
DpEncoding build_demand_pinning(lp::Model& model, const net::Topology& topo,
                                const PathSet& paths,
                                const std::vector<lp::Var>& demand,
                                const DpConfig& config,
                                const std::string& prefix = "dp.",
                                const std::vector<bool>* include = nullptr);

}  // namespace metaopt::te
