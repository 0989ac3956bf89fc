// The paper's contribution: provable adversarial-input search (Eq. 1)
// for the traffic-engineering heuristics, and its §5 upper bound.
//
//   argmax_{d in ConstrainedSet}  OPT(d) - Heuristic(d)
//
// Each model holds the demand leader, OPT as the first follower (§3.1),
// the heuristic's inner problems as the next, and the realistic input
// constraints (§3.3). A find writes each follower's KKT system
// (kkt::emit_kkt) and hands the model to the shared single-shot driver
// (core/single_shot.h) with the family's hooks: Demand Pinning's pin
// completion and epsilon-band snap, POP's rounding cutoffs, and the
// direct oracle that seeds the first incumbent. The driver re-solves
// every candidate with the small direct LPs and lifts it to a full
// feasible assignment (kkt/parametric.h), so each incumbent is a
// *genuine* adversarial input with an exactly known gap, and the
// branch-and-bound bound certifies how far it can be from the worst case.
//
// A bound builds the same model with each follower's primal-dual
// relaxation instead (kkt::emit_primal_dual). It contains every optimal
// follower response, so its optimum bounds the worst case from above
// with no complementarity pairs: an LP for POP, a MILP over the pinning
// indicators for DP. Together with a find this brackets the worst case:
//
//     best found gap  <=  true worst case  <=  primal-dual bound.
//
// Validity rests on the declared dual bounds containing an optimal dual
// solution (see te/max_flow.h).
//
// POP support follows §3.2: the heuristic objective is the empirical
// mean of several partition instantiations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/input_constraints.h"
#include "heur/instance.h"
#include "lp/model.h"
#include "mip/branch_and_bound.h"
#include "net/topology.h"
#include "te/demand_pinning.h"
#include "te/path_set.h"
#include "te/pop.h"

namespace metaopt::core {

struct AdversarialOptions {
  /// Demand box: every adversarial volume in [0, demand_ub];
  /// 0 means "max link capacity".
  double demand_ub = 0.0;
  /// Restrict the adversarial demand support to these pairs (empty =
  /// all pairs). Masked-out pairs are fixed to zero demand — this is the
  /// partially-specified-goalpost trick of §3.3 and the main lever for
  /// problem size (§3's scalability caveat).
  std::vector<bool> pair_mask;
  /// Solver budgets: the B&B time and node limits (mip::MipOptions).
  mip::MipOptions mip;
  /// Realistic input constraints (§3.3) and exclusions (§5).
  InputConstraints constraints;
  /// Drive incumbents through direct re-evaluation (strongly
  /// recommended; off only for ablation).
  bool use_primal_heuristic = true;
  /// Budget for the quantized black-box pass that seeds the first
  /// incumbent (our stand-in for a commercial solver's MIP-start
  /// heuristics; §5's extremum-point observation). 0 disables.
  double seed_search_seconds = 3.0;

  AdversarialOptions() { mip.time_limit_seconds = 60.0; }
};

/// The result shape is shared with every other heuristic domain now
/// (heur/instance.h); the TE name survives as an alias.
using AdversarialResult = heur::GapFindResult;

/// The demand leader of a TE model: one variable per pair in the
/// adversarial support.
struct DemandVars {
  std::vector<lp::Var> vars;       ///< invalid for excluded pairs
  std::vector<lp::LinExpr> exprs;  ///< the variable, or constant 0
  std::vector<bool> include;       ///< pairs carrying adversarial demand
  double ub = 0.0;                 ///< demand box upper bound
};

/// Adds the demand leader to `model`. Pairs without paths or masked out
/// by options.pair_mask are excluded. Throws std::invalid_argument when
/// pair_mask is non-empty and does not have one entry per pair.
DemandVars make_demand_vars(lp::Model& model, const net::Topology& topo,
                            const te::PathSet& paths,
                            const AdversarialOptions& options);

class AdversarialGapFinder {
 public:
  AdversarialGapFinder(const net::Topology& topo, const te::PathSet& paths)
      : topo_(topo), paths_(paths) {}

  /// Worst-case gap of Demand Pinning vs OPT.
  [[nodiscard]] AdversarialResult find_dp_gap(
      const te::DpConfig& config, const AdversarialOptions& options) const;

  /// Worst-case gap of POP vs OPT over the given partition
  /// instantiation seeds (§3.2): the expected gap over them. One seed
  /// reproduces the single-instance column of Fig. 5a.
  [[nodiscard]] AdversarialResult find_pop_gap(
      const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
      const AdversarialOptions& options) const;

  /// Primal-dual upper bound on find_dp_gap's objective: a MILP over the
  /// pinning indicators only. Uses options.demand_ub, pair_mask, mip and
  /// constraints.
  [[nodiscard]] heur::GapBoundResult bound_dp_gap(
      const te::DpConfig& config, const AdversarialOptions& options) const;

  /// Primal-dual upper bound on find_pop_gap's objective: a single LP.
  [[nodiscard]] heur::GapBoundResult bound_pop_gap(
      const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
      const AdversarialOptions& options) const;

  /// Model-size accounting for Fig. 6: the metaopt model vs the plain
  /// heuristic and OPT models.
  struct ProblemSizes {
    lp::ModelStats metaopt;
    lp::ModelStats heuristic;
    lp::ModelStats opt;
  };
  [[nodiscard]] ProblemSizes dp_problem_sizes(
      const te::DpConfig& config, const AdversarialOptions& options) const;
  [[nodiscard]] ProblemSizes pop_problem_sizes(
      const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
      const AdversarialOptions& options) const;

 private:
  const net::Topology& topo_;
  const te::PathSet& paths_;
};

}  // namespace metaopt::core
