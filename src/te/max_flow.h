// FeasibleFlow (Eq. 2) and OptMaxFlow (Eq. 3).
//
// The formulation has two forms:
//  * build_max_flow expresses it as an InnerProblem over demand
//    expressions (constants or outer variables). The white-box search
//    passes it through emit_kkt, and the KKT primal heuristic solves it
//    at fixed outer values (kkt::solve_inner_at).
//  * MaxFlowLp is the direct-solve form: one LP per (topology, path
//    set) whose demands, pair masks and capacities are all column
//    bounds. Every direct solve (the gap oracles, solve_max_flow and the
//    DP / POP procedural solvers built on it) is a bound change on it,
//    answered by the revised simplex core and optionally warm-started
//    from another solve's optimal basis.
//
// We eliminate the aggregate f_k variables by substitution
// (f_k = sum_p f_k^p), so the volume row reads sum_p f_k^p <= d_k. This
// halves the KKT complementarity count without changing the polytope.
//
// Dual bounds: with unit objective coefficients the max-flow dual always
// admits an optimal point with capacity/volume multipliers <= 1 (any
// component > 1 can be clamped: it alone already covers every dual
// constraint it appears in), and bound-row multipliers <= max path hops
// + 1 by stationarity. These bounds keep the branch-and-bound relaxation
// tight; they are configurable for paranoia sweeps.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kkt/inner_problem.h"
#include "lp/basis.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "te/path_set.h"

namespace metaopt::lp {
class WarmStartContext;
}  // namespace metaopt::lp

namespace metaopt::te {

struct MaxFlowOptions {
  /// Capacities are multiplied by this factor (POP gives each of c
  /// partitions a 1/c share, Eq. 6).
  double capacity_scale = 1.0;
  /// Optional demand mask: pairs with include[k] == false get no flow
  /// variables (POP partitions, Eq. 6).
  const std::vector<bool>* include = nullptr;
  /// Optional per-edge capacity override (residual capacities in the
  /// procedural DP solver). Size must equal topo.num_edges().
  const std::vector<double>* capacity_override = nullptr;
  /// Multiplier applied to the analytic dual bounds; <= 0 disables dual
  /// bounds entirely (sound but slow). Encodings only: direct solves
  /// carry no dual bounds.
  double dual_bound_scale = 1.0;
  /// Certify the direct solve (check::certify_lp) and record the verdict
  /// in MaxFlowResult::certified. Defaults to the solver-wide policy
  /// (on in Debug, opt-in in Release); explain probes force it on.
  bool certify = lp::kCertifyByDefault;
};

/// The flow variables and inner problem of one OptMaxFlow instance.
struct FlowEncoding {
  /// path_flow[k][p] is f_k^p; pairs that are masked out or have no
  /// paths get an empty vector.
  std::vector<std::vector<lp::Var>> path_flow;
  /// sum of all flow variables — the inner objective (total carried
  /// demand).
  lp::LinExpr total_flow;
  kkt::InnerProblem inner;

  FlowEncoding() : inner(lp::ObjSense::Maximize) {}
};

/// Adds OptMaxFlow's variables to `model` and returns its encoding.
/// `demand[k]` is d_k as a linear expression (a constant for direct
/// solves, an outer variable for adversarial search); its size must
/// equal paths.num_pairs().
FlowEncoding build_max_flow(lp::Model& model, const net::Topology& topo,
                            const PathSet& paths,
                            const std::vector<lp::LinExpr>& demand,
                            const std::string& prefix,
                            const MaxFlowOptions& options = {});

/// Result of a direct OptMaxFlow solve.
struct MaxFlowResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  double total_flow = 0.0;
  /// flow[k][p] aligned with the path set (empty for masked pairs).
  std::vector<std::vector<double>> path_flow;
  /// True when the solve ran with certification and passed.
  bool certified = false;
  /// Optimal basis of the solve (null unless the revised core proved
  /// optimality): the warm-start hint for a later solve on the same
  /// MaxFlowLp.
  std::shared_ptr<const lp::Basis> basis;
};

/// Per-edge load of a path-flow solution (size topo.num_edges()).
std::vector<double> edge_loads(const net::Topology& topo, const PathSet& paths,
                               const std::vector<std::vector<double>>& flow);

/// OptMaxFlow as one LP, built once per (topology, path set), on the
/// first solve, and re-solved by changing bounds only:
///
///   max  sum f_kp
///   s.t. sum_p f_kp - d_k <= 0     (volume row per pair with paths)
///        load_e - c_e <= 0         (capacity row per edge on some path)
///
/// d_k and c_e are columns fixed at the solve's demand and (scaled or
/// overridden) capacity; a pair masked out by MaxFlowOptions::include
/// gets d_k = 0 and flow upper bounds 0. The structure never changes, so
/// any solve's optimal basis is a valid, dual-feasible warm start for
/// any other solve on the same object.
///
/// Thread-safety: solve() is const and may run concurrently. Each call
/// borrows a revised-simplex context from a mutex-guarded free list and
/// returns it afterwards; a cold solve, and a warm solve from a given
/// hint, are pure functions of (bounds, hint), so which context serves
/// a call never changes its answer.
class MaxFlowLp {
 public:
  MaxFlowLp(const net::Topology& topo, const PathSet& paths);
  ~MaxFlowLp();
  MaxFlowLp(const MaxFlowLp&) = delete;
  MaxFlowLp& operator=(const MaxFlowLp&) = delete;

  /// Solves for concrete `volumes` (size paths().num_pairs()) under
  /// `options` (dual_bound_scale is ignored). A null `hint` solves cold;
  /// otherwise the dual simplex starts from `hint`, normally the basis
  /// of an earlier solve on this LP.
  [[nodiscard]] MaxFlowResult solve(const std::vector<double>& volumes,
                                    const MaxFlowOptions& options = {},
                                    const lp::Basis* hint = nullptr) const;

  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] const PathSet& paths() const { return paths_; }

 private:
  struct Structure;  ///< the model and its column maps
  class Lease;       ///< one solve's context, borrowed from free_

  /// Builds the structure on first use (oracles are often constructed
  /// and never, or only later, evaluated).
  [[nodiscard]] const Structure& structure() const;

  const net::Topology& topo_;
  const PathSet& paths_;
  mutable std::once_flag built_;
  mutable std::unique_ptr<const Structure> structure_;
  mutable std::mutex mutex_;  ///< guards free_
  mutable std::vector<std::unique_ptr<lp::WarmStartContext>> free_;
};

/// Solves OptMaxFlow directly for concrete demand volumes (one cold
/// solve on a one-shot MaxFlowLp).
MaxFlowResult solve_max_flow(const net::Topology& topo, const PathSet& paths,
                             const std::vector<double>& volumes,
                             const MaxFlowOptions& options = {});

}  // namespace metaopt::te
