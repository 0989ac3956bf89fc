#include "core/adversarial.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/single_shot.h"
#include "kkt/kkt_rewriter.h"
#include "kkt/materialize.h"
#include "kkt/primal_dual.h"
#include "te/gap.h"
#include "te/max_flow.h"
#include "util/stopwatch.h"

namespace metaopt::core {

using kkt::KktArtifacts;
using lp::LinExpr;
using lp::Model;

DemandVars make_demand_vars(Model& model, const net::Topology& topo,
                            const te::PathSet& paths,
                            const AdversarialOptions& options) {
  const int pairs = paths.num_pairs();
  if (!options.pair_mask.empty() &&
      options.pair_mask.size() != static_cast<std::size_t>(pairs)) {
    throw std::invalid_argument(
        "pair_mask has " + std::to_string(options.pair_mask.size()) +
        " entries for " + std::to_string(pairs) + " demand pairs");
  }
  DemandVars d;
  d.ub = options.demand_ub > 0.0 ? options.demand_ub : topo.max_capacity();
  d.vars.assign(pairs, lp::Var{});
  d.include.assign(pairs, false);
  d.exprs.reserve(pairs);
  for (int k = 0; k < pairs; ++k) {
    const bool in = !paths.paths(k).empty() &&
                    (options.pair_mask.empty() || options.pair_mask[k]);
    d.include[k] = in;
    if (in) {
      d.vars[k] = model.add_var("d[" + std::to_string(k) + "]", 0.0, d.ub);
      d.exprs.emplace_back(d.vars[k]);
    } else {
      d.exprs.emplace_back(0.0);
    }
  }
  return d;
}

namespace {

/// Everything a TE model's followers and hooks point into.
struct TeState {
  DemandVars d;
  te::FlowEncoding opt;
  te::DpEncoding dp;
  std::vector<te::PopEncoding> pop;
  /// A find's followers, OPT first, in emission order, and the KKT system
  /// it wrote for each. A bound leaves both empty.
  std::vector<const kkt::InnerProblem*> inner;
  std::vector<KktArtifacts> kkt;
  /// OPT's and the heuristic's terms of the objective.
  LinExpr opt_expr;
  LinExpr heur_expr;
  ConstraintArtifacts constraints;
};

/// Writes the optimality conditions of one follower into the model and
/// returns the follower's objective expression.
using EmitFollower = LinExpr (*)(Model& model, TeState& s,
                                 const kkt::InnerProblem& inner,
                                 const std::string& prefix);

/// A find's follower: its KKT system, kept for the single-shot driver.
LinExpr emit_kkt(Model& model, TeState& s, const kkt::InnerProblem& inner,
                 const std::string& prefix) {
  s.inner.push_back(&inner);
  s.kkt.push_back(kkt::emit_kkt(model, inner, prefix));
  return s.kkt.back().objective_expr;
}

/// A bound's follower: its primal-dual relaxation.
LinExpr emit_primal_dual(Model& model, TeState& /*s*/,
                         const kkt::InnerProblem& inner,
                         const std::string& prefix) {
  return kkt::emit_primal_dual(model, inner, prefix).objective_expr;
}

/// Builds the demand leader and the OPT follower. Every TE model starts
/// here, so variable ids begin the same way in each.
std::shared_ptr<TeState> start_te(Model& model, const net::Topology& topo,
                                  const te::PathSet& paths,
                                  const AdversarialOptions& options,
                                  EmitFollower emit) {
  auto s = std::make_shared<TeState>();
  s->d = make_demand_vars(model, topo, paths, options);
  te::MaxFlowOptions opt_options;
  opt_options.include = &s->d.include;
  s->opt =
      te::build_max_flow(model, topo, paths, s->d.exprs, "opt.", opt_options);
  s->opt_expr = emit(model, *s, s->opt.inner, "opt.");
  return s;
}

/// Adds the input constraints and the objective OPT - heuristic.
void finish_te(Model& model, const AdversarialOptions& options, TeState& s) {
  s.constraints =
      apply_input_constraints(model, s.d.vars, options.constraints, s.d.ub);
  model.set_objective(lp::ObjSense::Maximize, s.opt_expr - s.heur_expr);
}

/// The DP model. `dp` gets the demand box as its default demand_ub.
std::shared_ptr<TeState> dp_model(Model& model, const net::Topology& topo,
                                  const te::PathSet& paths, te::DpConfig& dp,
                                  const AdversarialOptions& options,
                                  EmitFollower emit) {
  const std::shared_ptr<TeState> s =
      start_te(model, topo, paths, options, emit);
  if (dp.demand_ub <= 0.0) dp.demand_ub = s->d.ub;
  s->dp = te::build_demand_pinning(model, topo, paths, s->d.vars, dp, "dp.",
                                   &s->d.include);
  s->heur_expr = emit(model, *s, s->dp.inner, "dp.");
  finish_te(model, options, *s);
  return s;
}

/// The POP model: one instantiation per seed, their mean as the
/// heuristic. POP partitions demand pairs; pairs outside the adversarial
/// support carry zero demand, so the partition universe stays the full
/// pair set as in Eq. 6.
std::shared_ptr<TeState> pop_model(Model& model, const net::Topology& topo,
                                   const te::PathSet& paths,
                                   const te::PopConfig& config,
                                   const std::vector<std::uint64_t>& seeds,
                                   const AdversarialOptions& options,
                                   EmitFollower emit) {
  const std::shared_ptr<TeState> s =
      start_te(model, topo, paths, options, emit);
  s->pop.reserve(seeds.size());  // keeps the followers' pointers valid
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst = config;
    inst.seed = seeds[r];
    const std::string prefix = "pop" + std::to_string(r) + ".";
    s->pop.push_back(
        te::build_pop(model, topo, paths, s->d.exprs, inst, prefix));
    const te::PopEncoding& enc = s->pop.back();
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      (void)emit(model, *s, enc.partitions[part].inner,
                 prefix + std::to_string(part) + ".");
    }
    s->heur_expr +=
        (1.0 / static_cast<double>(seeds.size())) * enc.total_flow;
  }
  finish_te(model, options, *s);
  return s;
}

/// The single-shot description of a built find model. `aux` writes the
/// family's auxiliary values before the input constraints' own are
/// completed.
SingleShot te_shot(
    const Model& model, const net::Topology& topo,
    const AdversarialOptions& options, const std::shared_ptr<TeState>& s,
    std::function<void(const std::vector<double>&, std::vector<double>&)>
        aux) {
  SingleShot shot;
  shot.leader = s->d.vars;
  shot.leader_ub = s->d.ub;
  for (std::size_t i = 0; i < s->inner.size(); ++i) {
    shot.followers.push_back({s->inner[i], &s->kkt[i]});
  }
  shot.opt_expr = s->opt_expr;
  shot.heur_expr = s->heur_expr;
  shot.normalizer = topo.total_capacity();
  shot.state = s;
  shot.complete = [&model, s, constraints = options.constraints,
                   aux = std::move(aux)](const std::vector<double>& vols,
                                         std::vector<double>& assign) {
    if (aux) aux(vols, assign);
    return complete_constraint_assignment(model, s->d.vars, constraints,
                                          s->constraints, vols, assign);
  };
  return shot;
}

SingleShot dp_shot(Model& model, const net::Topology& topo,
                   const te::PathSet& paths, const te::DpConfig& config,
                   const AdversarialOptions& options) {
  te::DpConfig dp = config;
  const std::shared_ptr<TeState> s =
      dp_model(model, topo, paths, dp, options, emit_kkt);

  // Pins are a deterministic function of the demand.
  SingleShot shot = te_shot(
      model, topo, options, s,
      [s, t = dp.threshold](const std::vector<double>& vols,
                            std::vector<double>& assign) {
        for (std::size_t k = 0; k < vols.size(); ++k) {
          const lp::Var pin = s->dp.pin[k];
          if (pin.valid()) assign[pin.id] = vols[k] <= t ? 1.0 : 0.0;
        }
      });
  // Out of the indicator's epsilon band, onto the pinned side.
  shot.snap = [dp](std::vector<double>& vols) {
    for (double& v : vols) {
      if (v > dp.threshold && v < dp.threshold + te::kIndicatorEpsilon) {
        v = dp.threshold;
      }
    }
  };
  // §5: worst gaps concentrate at extreme points, so also try each
  // demand snapped to {0, T, ub}.
  shot.roundings = {[extremes = std::vector<double>{dp.threshold, 0.0,
                                                    s->d.ub}](double v) {
    return nearest_level(v, extremes);
  }};
  shot.make_oracle = [&topo, &paths, dp] {
    return std::make_unique<te::DpGapOracle>(topo, paths, dp);
  };
  shot.seed_levels = {0.0, dp.threshold, s->d.ub};
  return shot;
}

SingleShot pop_shot(Model& model, const net::Topology& topo,
                    const te::PathSet& paths, const te::PopConfig& config,
                    const std::vector<std::uint64_t>& seeds,
                    const AdversarialOptions& options) {
  const std::shared_ptr<TeState> s =
      pop_model(model, topo, paths, config, seeds, options, emit_kkt);
  SingleShot shot = te_shot(model, topo, options, s, nullptr);
  // POP's bad inputs are saturating demands that strand per-partition
  // capacity, so snap to {0, ub} at several cutoffs (the relaxation
  // vertex is a noisy guide).
  const double ub = s->d.ub;
  for (const double cutoff : {0.25, 0.5, 0.75}) {
    shot.roundings.push_back([at = cutoff * ub, ub](double v) {
      return v >= at ? ub : 0.0;
    });
  }
  // Instance-specific inputs need the polish (cf. Fig. 5a).
  shot.make_oracle = [&topo, &paths, config, seeds] {
    return std::make_unique<te::PopGapOracle>(topo, paths, config, seeds);
  };
  shot.seed_levels = {0.0, ub / config.num_partitions, ub};
  return shot;
}

/// Solves a bound model. Its proven B&B bound is the answer, even when
/// the solve stops early.
heur::GapBoundResult solve_bound(const Model& model,
                                 const net::Topology& topo,
                                 const AdversarialOptions& options,
                                 const util::Stopwatch& watch) {
  heur::GapBoundResult result;
  result.stats = model.stats();
  const lp::Solution sol = mip::BranchAndBound(options.mip).solve(model);
  result.status = sol.status;
  // For proven Optimal, best_bound equals the objective.
  result.upper_bound =
      sol.status == lp::SolveStatus::Optimal ? sol.objective : sol.best_bound;
  result.normalized_upper_bound = result.upper_bound / topo.total_capacity();
  result.certified = sol.certified;
  result.seconds = watch.seconds();
  return result;
}

/// The plain OPT model over the same demand leader (Fig. 6).
lp::ModelStats opt_problem_size(const net::Topology& topo,
                                const te::PathSet& paths,
                                const AdversarialOptions& options) {
  Model model;
  DemandVars d = make_demand_vars(model, topo, paths, options);
  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  const te::FlowEncoding opt =
      te::build_max_flow(model, topo, paths, d.exprs, "opt.", opt_options);
  kkt::materialize_constraints(model, opt.inner);
  return model.stats();
}

SingleShotBudget budget_of(const AdversarialOptions& options) {
  return {options.mip, options.seed_search_seconds,
          options.use_primal_heuristic};
}

}  // namespace

AdversarialResult AdversarialGapFinder::find_dp_gap(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  const util::Stopwatch watch;
  Model model;
  const SingleShot shot = dp_shot(model, topo_, paths_, config, options);
  return solve_single_shot(model, shot, budget_of(options), watch);
}

AdversarialResult AdversarialGapFinder::find_pop_gap(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  if (seeds.empty()) return {};
  const util::Stopwatch watch;
  Model model;
  const SingleShot shot =
      pop_shot(model, topo_, paths_, config, seeds, options);
  return solve_single_shot(model, shot, budget_of(options), watch);
}

heur::GapBoundResult AdversarialGapFinder::bound_dp_gap(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  const util::Stopwatch watch;
  Model model;
  te::DpConfig dp = config;
  (void)dp_model(model, topo_, paths_, dp, options, emit_primal_dual);
  return solve_bound(model, topo_, options, watch);
}

heur::GapBoundResult AdversarialGapFinder::bound_pop_gap(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  const util::Stopwatch watch;
  Model model;
  (void)pop_model(model, topo_, paths_, config, seeds, options,
                  emit_primal_dual);
  return solve_bound(model, topo_, options, watch);
}

AdversarialGapFinder::ProblemSizes AdversarialGapFinder::dp_problem_sizes(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  ProblemSizes sizes;
  {
    Model model;
    (void)dp_shot(model, topo_, paths_, config, options);
    sizes.metaopt = model.stats();
  }
  {
    Model model;
    DemandVars d = make_demand_vars(model, topo_, paths_, options);
    te::DpConfig dp_config = config;
    if (dp_config.demand_ub <= 0.0) dp_config.demand_ub = d.ub;
    te::DpEncoding dp_enc = te::build_demand_pinning(
        model, topo_, paths_, d.vars, dp_config, "dp.", &d.include);
    kkt::materialize_constraints(model, dp_enc.inner);
    sizes.heuristic = model.stats();
  }
  sizes.opt = opt_problem_size(topo_, paths_, options);
  return sizes;
}

AdversarialGapFinder::ProblemSizes AdversarialGapFinder::pop_problem_sizes(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  ProblemSizes sizes;
  {
    Model model;
    (void)pop_shot(model, topo_, paths_, config, seeds, options);
    sizes.metaopt = model.stats();
  }
  {
    Model model;
    DemandVars d = make_demand_vars(model, topo_, paths_, options);
    te::PopEncoding enc =
        te::build_pop(model, topo_, paths_, d.exprs, config, "pop.");
    for (te::FlowEncoding& part : enc.partitions) {
      kkt::materialize_constraints(model, part.inner);
    }
    sizes.heuristic = model.stats();
  }
  sizes.opt = opt_problem_size(topo_, paths_, options);
  return sizes;
}

}  // namespace metaopt::core
