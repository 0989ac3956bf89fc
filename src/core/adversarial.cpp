#include "core/adversarial.h"

#include <algorithm>
#include <cmath>
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

/// OPT vs POP with client splitting, averaged over the instantiation
/// seeds; the direct oracle behind find_pop_cs_gap's seeding pass.
class PopCsOracle final : public heur::GapOracle {
 public:
  PopCsOracle(const net::Topology& topo, const te::PathSet& paths,
              te::PopConfig pop, te::ClientSplitConfig cs,
              std::vector<std::uint64_t> seeds)
      : lp_(topo, paths), pop_(pop), cs_(cs), seeds_(std::move(seeds)) {}
  [[nodiscard]] int num_leader_vars() const override {
    return lp_.paths().num_pairs();
  }
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>& volumes) const override {
    count_evaluation();
    heur::GapResult out;
    // OPT cold, every partition warm from its basis (as te/gap.h).
    const te::MaxFlowResult opt = lp_.solve(volumes);
    if (opt.status != lp::SolveStatus::Optimal) {
      out.status = opt.status;
      return out;
    }
    out.opt = opt.total_flow;
    double mean = 0.0;
    for (std::uint64_t seed : seeds_) {
      te::PopConfig c = pop_;
      c.seed = seed;
      const te::PopResult pop =
          te::solve_pop_cs(lp_, volumes, c, cs_, opt.basis.get());
      if (pop.status != lp::SolveStatus::Optimal) {
        out.status = pop.status;
        return out;
      }
      mean += pop.total_flow / static_cast<double>(seeds_.size());
    }
    out.heur = mean;
    out.heuristic_feasible = true;
    out.status = lp::SolveStatus::Optimal;
    return out;
  }

 private:
  te::MaxFlowLp lp_;
  te::PopConfig pop_;
  te::ClientSplitConfig cs_;
  std::vector<std::uint64_t> seeds_;
};

/// Everything a TE family's followers and hooks point into. Each family
/// fills the heuristic encodings it uses.
struct TeState {
  DemandVars d;
  te::FlowEncoding opt;
  KktArtifacts opt_kkt;
  /// The heuristic's inner problems in follower order, and their KKT
  /// systems.
  std::vector<const kkt::InnerProblem*> heur_inner;
  std::vector<KktArtifacts> heur_kkt;
  ConstraintArtifacts constraints;
  te::DpEncoding dp;
  std::vector<te::PopEncoding> pop;
  std::vector<te::PopCsEncoding> pop_cs;
  SortingNetwork sort;
};

/// Builds the demand leader and the OPT follower. Every TE family starts
/// here, so variable ids begin the same way in each.
std::shared_ptr<TeState> start_te(Model& model, const net::Topology& topo,
                                  const te::PathSet& paths,
                                  const AdversarialOptions& options) {
  auto s = std::make_shared<TeState>();
  s->d = make_demand_vars(model, topo, paths, options);
  te::MaxFlowOptions opt_options;
  opt_options.include = &s->d.include;
  s->opt =
      te::build_max_flow(model, topo, paths, s->d.exprs, "opt.", opt_options);
  s->opt_kkt = kkt::emit_kkt(model, s->opt.inner, "opt.");
  return s;
}

/// Adds the input constraints and the objective OPT - `heur_expr`, and
/// fills the fields every TE family shares. `aux` writes the family's
/// auxiliary values before the input constraints' own are completed.
SingleShot finish_te(
    Model& model, const net::Topology& topo,
    const AdversarialOptions& options, const std::shared_ptr<TeState>& s,
    const LinExpr& heur_expr,
    std::function<void(const std::vector<double>&, std::vector<double>&)>
        aux) {
  s->constraints =
      apply_input_constraints(model, s->d.vars, options.constraints, s->d.ub);
  model.set_objective(lp::ObjSense::Maximize,
                      s->opt_kkt.objective_expr - heur_expr);
  SingleShot shot;
  shot.leader = s->d.vars;
  shot.leader_ub = s->d.ub;
  shot.followers.push_back({&s->opt.inner, &s->opt_kkt});
  for (std::size_t i = 0; i < s->heur_inner.size(); ++i) {
    shot.followers.push_back({s->heur_inner[i], &s->heur_kkt[i]});
  }
  shot.opt_expr = s->opt_kkt.objective_expr;
  shot.heur_expr = heur_expr;
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
  const std::shared_ptr<TeState> s = start_te(model, topo, paths, options);
  te::DpConfig dp = config;
  if (dp.demand_ub <= 0.0) dp.demand_ub = s->d.ub;
  s->dp = te::build_demand_pinning(model, topo, paths, s->d.vars, dp, "dp.",
                                   &s->d.include);
  s->heur_inner.push_back(&s->dp.inner);
  s->heur_kkt.push_back(kkt::emit_kkt(model, s->dp.inner, "dp."));

  // Pins are a deterministic function of the demand.
  SingleShot shot = finish_te(
      model, topo, options, s, s->heur_kkt[0].objective_expr,
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
                    const AdversarialOptions& options,
                    const PopObjective& objective) {
  const std::shared_ptr<TeState> s = start_te(model, topo, paths, options);
  // One POP instantiation per seed. POP partitions demand pairs; pairs
  // outside the adversarial support carry zero demand, so the partition
  // universe stays the full pair set as in Eq. 6. The reserve keeps the
  // heur_inner pointers valid.
  s->pop.reserve(seeds.size());
  LinExpr heur_mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst = config;
    inst.seed = seeds[r];
    const std::string prefix = "pop" + std::to_string(r) + ".";
    s->pop.push_back(
        te::build_pop(model, topo, paths, s->d.exprs, inst, prefix));
    const te::PopEncoding& enc = s->pop.back();
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      s->heur_inner.push_back(&enc.partitions[part].inner);
      s->heur_kkt.push_back(kkt::emit_kkt(model, enc.partitions[part].inner,
                                          prefix + std::to_string(part) +
                                              "."));
    }
    heur_mean += (1.0 / static_cast<double>(seeds.size())) * enc.total_flow;
  }

  // The heuristic descriptor (§3.2): the empirical mean, or an order
  // statistic bubbled up by a sorting network over the per-instance
  // totals.
  LinExpr heur_expr = heur_mean;
  const bool percentile =
      objective.kind == PopObjective::Kind::Percentile && seeds.size() > 1;
  if (percentile) {
    std::vector<LinExpr> totals;
    totals.reserve(s->pop.size());
    for (const te::PopEncoding& enc : s->pop) totals.push_back(enc.total_flow);
    s->sort = encode_sorting_network(model, totals, topo.total_capacity(),
                                     "popsort.");
    const int index = static_cast<int>(
        std::lround(std::clamp(objective.percentile, 0.0, 1.0) *
                    static_cast<double>(seeds.size() - 1)));
    heur_expr = LinExpr(s->sort.sorted[index]);
  }

  SingleShot shot =
      finish_te(model, topo, options, s, heur_expr, nullptr);
  if (percentile) {
    shot.finish = [&model, s](std::vector<double>& assign) {
      std::vector<double> totals;
      totals.reserve(s->pop.size());
      for (const te::PopEncoding& enc : s->pop) {
        totals.push_back(model.eval(enc.total_flow, assign));
      }
      complete_sorting_assignment(s->sort, totals, assign);
    };
  }
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

SingleShot pop_cs_shot(Model& model, const net::Topology& topo,
                       const te::PathSet& paths, const te::PopConfig& config,
                       const te::ClientSplitConfig& cs,
                       const std::vector<std::uint64_t>& seeds,
                       const AdversarialOptions& options) {
  const std::shared_ptr<TeState> s = start_te(model, topo, paths, options);
  s->pop_cs.reserve(seeds.size());  // keeps the heur_inner pointers valid
  LinExpr heur_mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst = config;
    inst.seed = seeds[r];
    const std::string prefix = "popcs" + std::to_string(r) + ".";
    s->pop_cs.push_back(te::build_pop_cs(model, topo, paths, s->d.vars,
                                         s->d.ub, inst, cs, prefix,
                                         &s->d.include));
    const te::PopCsEncoding& enc = s->pop_cs.back();
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      s->heur_inner.push_back(&enc.partitions[part]);
      s->heur_kkt.push_back(kkt::emit_kkt(
          model, enc.partitions[part], prefix + std::to_string(part) + "."));
    }
    heur_mean += (1.0 / static_cast<double>(seeds.size())) * enc.total_flow;
  }

  // Level indicators are a deterministic function of the demand.
  SingleShot shot = finish_te(
      model, topo, options, s, heur_mean,
      [s, cs](const std::vector<double>& vols, std::vector<double>& assign) {
        for (const te::PopCsEncoding& enc : s->pop_cs) {
          for (std::size_t k = 0; k < enc.level_ind.size(); ++k) {
            const std::vector<lp::Var>& levels = enc.level_ind[k];
            if (levels.empty()) continue;
            const int level = te::split_level(vols[k], cs);
            for (std::size_t l = 0; l < levels.size(); ++l) {
              assign[levels[l].id] =
                  l == static_cast<std::size_t>(level) ? 1.0 : 0.0;
            }
          }
        }
      });
  // Out of the dead epsilon band below each level boundary 2^l * T (the
  // hi indicator row excludes (B - eps, B)).
  shot.snap = [cs](std::vector<double>& vols) {
    for (double& v : vols) {
      for (int level = 0; level < cs.max_splits; ++level) {
        const double boundary = std::ldexp(cs.split_threshold, level);
        if (v > boundary - te::kIndicatorEpsilon && v < boundary) {
          v = boundary;
          break;
        }
      }
    }
  };
  const double ub = s->d.ub;
  shot.roundings = {[ub](double v) { return v >= ub / 2.0 ? ub : 0.0; }};
  shot.make_oracle = [&topo, &paths, config, cs, seeds] {
    return std::make_unique<PopCsOracle>(topo, paths, config, cs, seeds);
  };
  shot.seed_levels = {0.0, cs.split_threshold, ub / config.num_partitions,
                      ub};
  return shot;
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
    const AdversarialOptions& options, const PopObjective& objective) const {
  if (seeds.empty()) return {};
  const util::Stopwatch watch;
  Model model;
  const SingleShot shot =
      pop_shot(model, topo_, paths_, config, seeds, options, objective);
  return solve_single_shot(model, shot, budget_of(options), watch);
}

AdversarialResult AdversarialGapFinder::find_pop_cs_gap(
    const te::PopConfig& config, const te::ClientSplitConfig& cs_config,
    const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  if (seeds.empty()) return {};
  const util::Stopwatch watch;
  Model model;
  const SingleShot shot =
      pop_cs_shot(model, topo_, paths_, config, cs_config, seeds, options);
  return solve_single_shot(model, shot, budget_of(options), watch);
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
    (void)pop_shot(model, topo_, paths_, config, seeds, options,
                   PopObjective());
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
