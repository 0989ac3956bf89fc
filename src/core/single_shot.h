// The single-shot search of Eq. 1 (§3.1), shared by every white-box find.
//
//   argmax_{x in leader box}  OPT(x) - Heuristic(x)
//
// A family builds the model: the leader variables, OPT and the
// heuristic's inner problems KKT-rewritten as followers (kkt::emit_kkt),
// any extra rows, and the objective. It then describes the model and its
// domain rules in a SingleShot, and solve_single_shot() runs the skeleton
// every family shares:
//
//   1. assemble: a leader vector is snapped, written into an all-zero
//      assignment, completed (auxiliary binaries that are a function of
//      the leader), re-solved follower by follower on its kkt::InnerLp
//      (built once per run with the run's LP options; it answers values
//      it solved recently from its cache) and lifted to a
//      KKT point (kkt/parametric.h);
//   2. primal heuristic, at every node: the relaxation's leader values
//      and each rounding variant of them are assembled, skipping a
//      variant whose vector (bit for bit) was already assembled at this
//      node; the best wins, ties going to the earlier vector;
//   3. seeding: the deterministic trials, plus a quantized climb and a
//      hill-climb polish on the family's direct oracle when seeding has
//      a budget, are assembled; the best becomes the first incumbent;
//   4. branch-and-bound on what is left of the budget;
//   5. finalize from the B&B incumbent, then the optional exact
//      re-scorer, which may replace the answer.
//
// Families: Demand Pinning and POP in core/adversarial.cpp;
// first-fit(-decreasing) in binpack/adversarial.cpp.
// This layer knows neither: it links only heur, kkt, lp, mip and search.
//
// The hooks run on B&B worker threads when MipOptions::threads > 1, so
// they may only read shared state.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "heur/gap.h"
#include "heur/instance.h"
#include "kkt/inner_problem.h"
#include "kkt/kkt_rewriter.h"
#include "lp/expr.h"
#include "lp/model.h"
#include "mip/branch_and_bound.h"
#include "util/stopwatch.h"

namespace metaopt::core {

/// One embedded follower: an inner problem and the KKT system that
/// kkt::emit_kkt wrote for it.
struct Follower {
  const kkt::InnerProblem* inner = nullptr;
  const kkt::KktArtifacts* kkt = nullptr;
};

/// A built single-shot model and the family's hooks around it.
struct SingleShot {
  /// One variable per leader index. Invalid entries are fixed at zero
  /// (TE pairs outside the adversarial support).
  std::vector<lp::Var> leader;
  /// Leader box: every leader variable in [0, leader_ub].
  double leader_ub = 0.0;
  /// OPT first, then the heuristic's inner problems, re-solved in this
  /// order.
  std::vector<Follower> followers;
  /// OPT's and the heuristic's terms of the objective; finalize reports
  /// them as opt_value and heur_value.
  lp::LinExpr opt_expr;
  lp::LinExpr heur_expr;
  /// Denominator of GapFindResult::normalized_gap.
  double normalizer = 1.0;
  /// Owns what the followers and hooks point into.
  std::shared_ptr<const void> state;

  /// Moves a leader vector to a point the encoding represents exactly
  /// (out of an indicator's epsilon band; FFD's sorted form). Optional.
  std::function<void(std::vector<double>&)> snap;
  /// Writes the auxiliary values that follow from the (snapped) leader
  /// vector into `assign`; false rejects the candidate. Optional.
  std::function<bool(const std::vector<double>& leader,
                     std::vector<double>& assign)>
      complete;
  /// Elementwise roundings of the relaxation's leader values that the
  /// primal heuristic tries after the raw values, in order.
  std::vector<std::function<double(double)>> roundings;

  /// Deterministic seed candidates, tried even when seeding is off.
  std::vector<std::vector<double>> trials;
  /// Direct oracle for the black-box seeding pass; built only when
  /// seeding has a budget. Optional.
  std::function<std::unique_ptr<heur::GapOracle>()> make_oracle;
  /// Levels for the seeding pass's quantized climb.
  std::vector<double> seed_levels;

  /// Exact re-scorer. Gets the candidates (the B&B incumbent first when
  /// there is one, then every snapped seed trial) and the finalized
  /// result, which it may overwrite. Optional.
  std::function<void(const std::vector<std::vector<double>>& candidates,
                     heur::GapFindResult& result)>
      rescore;
};

/// The budgets of one run.
struct SingleShotBudget {
  /// B&B options; time_limit_seconds is the whole run's budget.
  mip::MipOptions mip;
  /// Budget of the black-box seeding pass; 0 turns it off.
  double seed_search_seconds = 0.0;
  /// Re-solve relaxation points into incumbents at every node.
  bool use_primal_heuristic = true;
};

/// The B&B options of a find: its budget and threads, and certification
/// when asked for or when the build certifies by default (Debug and the
/// sanitizer presets), so those builds check every solve.
mip::MipOptions find_mip_options(const heur::FindOptions& options);

/// The level nearest to `v`; ties go to the earlier level.
double nearest_level(double v, const std::vector<double>& levels);

/// Runs the single-shot search on `model`, whose objective the family
/// has set. `watch` started when the family began building: B&B gets
/// what is left of the budget, and trace times count from it.
heur::GapFindResult solve_single_shot(const lp::Model& model,
                                      const SingleShot& shot,
                                      const SingleShotBudget& budget,
                                      const util::Stopwatch& watch);

}  // namespace metaopt::core
