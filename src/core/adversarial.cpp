#include "core/adversarial.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "kkt/kkt_rewriter.h"
#include "kkt/materialize.h"
#include "kkt/parametric.h"
#include "te/client_split.h"
#include "te/gap.h"
#include "te/max_flow.h"
#include "search/search.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace metaopt::core {

namespace {

using kkt::KktArtifacts;
using lp::LinExpr;
using lp::Model;
using lp::Var;

/// Outer demand variables, one per included pair.
struct DemandVars {
  std::vector<Var> vars;        ///< invalid for excluded pairs
  std::vector<LinExpr> exprs;   ///< var or constant 0
  std::vector<bool> include;    ///< pairs carrying adversarial demand
  double ub = 0.0;
};

DemandVars make_demand_vars(Model& model, const net::Topology& topo,
                            const te::PathSet& paths,
                            const AdversarialOptions& options) {
  DemandVars d;
  d.ub = options.demand_ub > 0.0 ? options.demand_ub : topo.max_capacity();
  d.vars.assign(paths.num_pairs(), Var{});
  d.include.assign(paths.num_pairs(), false);
  d.exprs.reserve(paths.num_pairs());
  for (int k = 0; k < paths.num_pairs(); ++k) {
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

/// Extracts the (boxed) demand vector from a relaxation point.
std::vector<double> extract_volumes(const DemandVars& d,
                                    const std::vector<double>& relax) {
  std::vector<double> vols(d.vars.size(), 0.0);
  for (std::size_t k = 0; k < d.vars.size(); ++k) {
    if (d.vars[k].valid()) {
      vols[k] = std::clamp(relax[d.vars[k].id], 0.0, d.ub);
    }
  }
  return vols;
}

/// Fills the AdversarialResult tail fields from the B&B solution.
void finalize_result(const Model& model, const net::Topology& topo,
                     const DemandVars& d, const LinExpr& opt_expr,
                     const LinExpr& heur_expr, const lp::Solution& sol,
                     AdversarialResult& result) {
  result.status = sol.status;
  result.nodes = sol.iterations;
  result.bound = sol.best_bound;
  result.certified = sol.certified;
  // A TimeLimit status can arrive without any incumbent: values empty.
  if (!sol.has_solution() || sol.values.empty()) return;
  result.gap = sol.objective;
  result.normalized_gap = sol.objective / topo.total_capacity();
  result.opt_value = model.eval(opt_expr, sol.values);
  result.heur_value = model.eval(heur_expr, sol.values);
  result.volumes = extract_volumes(d, sol.values);
}

}  // namespace

AdversarialResult AdversarialGapFinder::find_dp_gap(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  util::Stopwatch watch;
  AdversarialResult result;

  Model model;
  DemandVars d = make_demand_vars(model, topo_, paths_, options);

  te::DpConfig dp_config = config;
  if (dp_config.demand_ub <= 0.0) dp_config.demand_ub = d.ub;

  // Inner follower 1: OPT.
  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  te::FlowEncoding opt_enc =
      te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
  const KktArtifacts opt_art = kkt::emit_kkt(model, opt_enc.inner, "opt.");

  // Inner follower 2: the DP heuristic (indicator rows + inner LP).
  te::DpEncoding dp_enc = te::build_demand_pinning(
      model, topo_, paths_, d.vars, dp_config, "dp.", &d.include);
  const KktArtifacts dp_art = kkt::emit_kkt(model, dp_enc.inner, "dp.");

  const ConstraintArtifacts cart = apply_input_constraints(
      model, d.vars, options.constraints, d.ub);

  model.set_objective(lp::ObjSense::Maximize,
                      opt_art.objective_expr - dp_art.objective_expr);
  result.stats = model.stats();

  // Lifts a concrete demand vector into a complete feasible single-shot
  // assignment via direct solves (kkt/parametric.h).
  auto assemble_candidate = [&](std::vector<double> vols)
      -> std::optional<std::pair<double, std::vector<double>>> {
    // Snap demands out of the indicator epsilon band (pin side).
    for (double& v : vols) {
      if (v > dp_config.threshold &&
          v < dp_config.threshold + dp_config.epsilon) {
        v = dp_config.threshold;
      }
    }
    std::vector<double> assign(model.num_vars(), 0.0);
    for (std::size_t k = 0; k < vols.size(); ++k) {
      if (d.vars[k].valid()) assign[d.vars[k].id] = vols[k];
      if (dp_enc.pin[k].valid()) {
        assign[dp_enc.pin[k].id] =
            vols[k] <= dp_config.threshold ? 1.0 : 0.0;
      }
    }
    if (!complete_constraint_assignment(model, d.vars, options.constraints,
                                        cart, vols, assign)) {
      return std::nullopt;
    }
    const kkt::ParametricSolve opt_ps =
        kkt::solve_inner_at(opt_enc.inner, model, assign);
    if (!kkt::assemble_kkt_point(model, opt_enc.inner, opt_art, opt_ps,
                                 assign)) {
      return std::nullopt;
    }
    const kkt::ParametricSolve dp_ps =
        kkt::solve_inner_at(dp_enc.inner, model, assign);
    if (!dp_ps.ok()) return std::nullopt;  // DP-infeasible input (§5)
    if (!kkt::assemble_kkt_point(model, dp_enc.inner, dp_art, dp_ps,
                                 assign)) {
      return std::nullopt;
    }
    return std::make_pair(model.objective_value(assign), std::move(assign));
  };

  mip::MipCallbacks callbacks;
  if (options.use_primal_heuristic) {
    callbacks.primal_heuristic =
        [&](const std::vector<double>& relax)
        -> std::optional<std::pair<double, std::vector<double>>> {
      const std::vector<double> vols = extract_volumes(d, relax);
      auto best = assemble_candidate(vols);
      // Also try the extremum-rounded variant (§5: worst gaps concentrate
      // at extreme points): snap each demand to {0, T, ub}.
      std::vector<double> snapped = vols;
      for (double& v : snapped) {
        const double to_zero = v;
        const double to_thresh = std::abs(v - dp_config.threshold);
        const double to_ub = d.ub - v;
        if (to_thresh <= to_zero && to_thresh <= to_ub) {
          v = dp_config.threshold;
        } else if (to_zero <= to_ub) {
          v = 0.0;
        } else {
          v = d.ub;
        }
      }
      if (auto cand = assemble_candidate(snapped)) {
        if (!best || cand->first > best->first) best = std::move(cand);
      }
      return best;
    };
  }
  callbacks.on_incumbent = [&](double obj, double /*bnb_sec*/,
                               const std::vector<double>&) {
    // Trace times are relative to the start of the whole search
    // (seeding included) so Fig. 3 series compose correctly.
    result.trace.emplace_back(watch.seconds(), obj);
  };

  // Seed incumbent: a quantized pass over {0, T, ub} (the §5
  // extremum-point observation) followed by a continuous hill-climb
  // polish from the quantized best — our stand-in for a commercial
  // solver's MIP-start heuristics.
  util::Stopwatch seed_watch;
  if (options.seed_search_seconds > 0.0) {
    const te::DpGapOracle oracle(topo_, paths_, dp_config);
    const search::MaskedGapOracle masked(oracle, d.include);
    search::SearchOptions seed_options;
    seed_options.time_limit_seconds = 0.6 * options.seed_search_seconds;
    seed_options.demand_ub = d.ub;
    seed_options.levels = {0.0, dp_config.threshold, d.ub};
    search::SearchResult seed = search::quantized_climb(masked, seed_options);
    search::SearchOptions polish_options;
    polish_options.time_limit_seconds = 0.4 * options.seed_search_seconds;
    polish_options.demand_ub = d.ub;
    polish_options.initial_point = seed.best_volumes;
    const search::SearchResult polished =
        search::hill_climb(masked, polish_options);
    if (polished.best.gap() > seed.best.gap()) seed = polished;
    if (seed.best.gap() > 0.0) {
      // Accepted initial incumbents flow through on_incumbent, which
      // records the trace entry.
      if (auto cand = assemble_candidate(masked.expand(seed.best_volumes))) {
        callbacks.initial_incumbents.push_back(std::move(*cand));
      }
    }
  }

  mip::MipOptions mip_options = options.mip;
  mip_options.time_limit_seconds = std::max(
      1e-3, mip_options.time_limit_seconds - seed_watch.seconds());
  const lp::Solution sol =
      mip::BranchAndBound(mip_options).solve(model, callbacks);
  finalize_result(model, topo_, d, opt_art.objective_expr,
                  dp_art.objective_expr, sol, result);
  result.seconds = watch.seconds();
  return result;
}

AdversarialResult AdversarialGapFinder::find_pop_gap(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options, const PopObjective& objective) const {
  util::Stopwatch watch;
  AdversarialResult result;
  if (seeds.empty()) return result;

  Model model;
  DemandVars d = make_demand_vars(model, topo_, paths_, options);

  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  te::FlowEncoding opt_enc =
      te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
  const KktArtifacts opt_art = kkt::emit_kkt(model, opt_enc.inner, "opt.");

  // One POP instantiation per seed; the heuristic objective is the mean
  // (the §3.2 expectation surrogate). POP partitions demand pairs; pairs
  // outside the adversarial support simply carry zero demand, so the
  // partition universe stays the full pair set as in Eq. 6.
  struct Instance {
    te::PopEncoding enc;
    std::vector<KktArtifacts> arts;
  };
  std::vector<Instance> instances;
  LinExpr heur_mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst_config = config;
    inst_config.seed = seeds[r];
    Instance inst;
    inst.enc = te::build_pop(model, topo_, paths_, d.exprs, inst_config,
                             "pop" + std::to_string(r) + ".");
    for (std::size_t part = 0; part < inst.enc.partitions.size(); ++part) {
      inst.arts.push_back(kkt::emit_kkt(
          model, inst.enc.partitions[part].inner,
          "pop" + std::to_string(r) + "." + std::to_string(part) + "."));
    }
    heur_mean += (1.0 / static_cast<double>(seeds.size())) *
                 inst.enc.total_flow;
    instances.push_back(std::move(inst));
  }

  // Heuristic descriptor: the empirical mean, or an order statistic
  // bubbled up by a sorting network over the per-instance totals (§3.2).
  LinExpr heur_expr = heur_mean;
  SortingNetwork sort_net;
  const bool use_percentile =
      objective.kind == PopObjective::Kind::Percentile && instances.size() > 1;
  if (use_percentile) {
    std::vector<LinExpr> totals;
    totals.reserve(instances.size());
    for (const Instance& inst : instances) {
      totals.push_back(inst.enc.total_flow);
    }
    sort_net = encode_sorting_network(model, totals, topo_.total_capacity(),
                                      "popsort.");
    const int index = static_cast<int>(std::lround(
        std::clamp(objective.percentile, 0.0, 1.0) *
        static_cast<double>(instances.size() - 1)));
    heur_expr = LinExpr(sort_net.sorted[index]);
  }

  const ConstraintArtifacts cart = apply_input_constraints(
      model, d.vars, options.constraints, d.ub);

  model.set_objective(lp::ObjSense::Maximize,
                      opt_art.objective_expr - heur_expr);
  result.stats = model.stats();

  auto assemble_candidate = [&](const std::vector<double>& vols)
      -> std::optional<std::pair<double, std::vector<double>>> {
    std::vector<double> assign(model.num_vars(), 0.0);
    for (std::size_t k = 0; k < vols.size(); ++k) {
      if (d.vars[k].valid()) assign[d.vars[k].id] = vols[k];
    }
    if (!complete_constraint_assignment(model, d.vars, options.constraints,
                                        cart, vols, assign)) {
      return std::nullopt;
    }
    const kkt::ParametricSolve opt_ps =
        kkt::solve_inner_at(opt_enc.inner, model, assign);
    if (!kkt::assemble_kkt_point(model, opt_enc.inner, opt_art, opt_ps,
                                 assign)) {
      return std::nullopt;
    }
    for (const Instance& inst : instances) {
      for (std::size_t part = 0; part < inst.enc.partitions.size(); ++part) {
        const kkt::ParametricSolve ps = kkt::solve_inner_at(
            inst.enc.partitions[part].inner, model, assign);
        if (!kkt::assemble_kkt_point(model, inst.enc.partitions[part].inner,
                                     inst.arts[part], ps, assign)) {
          return std::nullopt;
        }
      }
    }
    if (use_percentile) {
      std::vector<double> totals;
      totals.reserve(instances.size());
      for (const Instance& inst : instances) {
        totals.push_back(model.eval(inst.enc.total_flow, assign));
      }
      complete_sorting_assignment(sort_net, totals, assign);
    }
    return std::make_pair(model.objective_value(assign), std::move(assign));
  };

  mip::MipCallbacks callbacks;
  if (options.use_primal_heuristic) {
    callbacks.primal_heuristic =
        [&](const std::vector<double>& relax)
        -> std::optional<std::pair<double, std::vector<double>>> {
      const std::vector<double> vols = extract_volumes(d, relax);
      auto best = assemble_candidate(vols);
      // Extremum-rounded variants: POP's bad inputs are saturating
      // demands that strand per-partition capacity, so snap to {0, ub}
      // at several cutoffs (the relaxation vertex is a noisy guide).
      for (const double cutoff : {0.25, 0.5, 0.75}) {
        std::vector<double> snapped = vols;
        for (double& v : snapped) v = v >= cutoff * d.ub ? d.ub : 0.0;
        if (auto cand = assemble_candidate(snapped)) {
          if (!best || cand->first > best->first) best = std::move(cand);
        }
      }
      return best;
    };
  }
  callbacks.on_incumbent = [&](double obj, double /*bnb_sec*/,
                               const std::vector<double>&) {
    result.trace.emplace_back(watch.seconds(), obj);
  };

  // Seed incumbent: quantized pass then continuous hill-climb polish
  // (instance-specific inputs need the polish; cf. Fig. 5a).
  util::Stopwatch seed_watch;
  if (options.seed_search_seconds > 0.0) {
    const te::PopGapOracle oracle(topo_, paths_, config, seeds);
    const search::MaskedGapOracle masked(oracle, d.include);
    search::SearchOptions seed_options;
    seed_options.time_limit_seconds = 0.5 * options.seed_search_seconds;
    seed_options.demand_ub = d.ub;
    seed_options.levels = {0.0, d.ub / config.num_partitions, d.ub};
    search::SearchResult seed = search::quantized_climb(masked, seed_options);
    search::SearchOptions polish_options;
    polish_options.time_limit_seconds = 0.5 * options.seed_search_seconds;
    polish_options.demand_ub = d.ub;
    polish_options.initial_point = seed.best_volumes;
    const search::SearchResult polished =
        search::hill_climb(masked, polish_options);
    if (polished.best.gap() > seed.best.gap()) seed = polished;
    if (seed.best.gap() > 0.0) {
      // Accepted initial incumbents flow through on_incumbent, which
      // records the trace entry.
      if (auto cand = assemble_candidate(masked.expand(seed.best_volumes))) {
        callbacks.initial_incumbents.push_back(std::move(*cand));
      }
    }
  }

  mip::MipOptions mip_options = options.mip;
  mip_options.time_limit_seconds = std::max(
      1e-3, mip_options.time_limit_seconds - seed_watch.seconds());
  const lp::Solution sol =
      mip::BranchAndBound(mip_options).solve(model, callbacks);
  finalize_result(model, topo_, d, opt_art.objective_expr, heur_expr, sol,
                  result);
  result.seconds = watch.seconds();
  return result;
}

AdversarialResult AdversarialGapFinder::find_pop_cs_gap(
    const te::PopConfig& config, const te::ClientSplitConfig& cs_config,
    const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  util::Stopwatch watch;
  AdversarialResult result;
  if (seeds.empty()) return result;

  Model model;
  DemandVars d = make_demand_vars(model, topo_, paths_, options);

  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  te::FlowEncoding opt_enc =
      te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
  const KktArtifacts opt_art = kkt::emit_kkt(model, opt_enc.inner, "opt.");

  struct CsInstance {
    te::PopCsEncoding enc;
    std::vector<KktArtifacts> arts;
  };
  std::vector<CsInstance> instances;
  LinExpr heur_mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst_config = config;
    inst_config.seed = seeds[r];
    CsInstance inst;
    inst.enc =
        te::build_pop_cs(model, topo_, paths_, d.vars, d.ub, inst_config,
                         cs_config, "popcs" + std::to_string(r) + ".",
                         &d.include);
    for (std::size_t part = 0; part < inst.enc.partitions.size(); ++part) {
      inst.arts.push_back(kkt::emit_kkt(
          model, inst.enc.partitions[part],
          "popcs" + std::to_string(r) + "." + std::to_string(part) + "."));
    }
    heur_mean += (1.0 / static_cast<double>(seeds.size())) *
                 inst.enc.total_flow;
    instances.push_back(std::move(inst));
  }

  const ConstraintArtifacts cart = apply_input_constraints(
      model, d.vars, options.constraints, d.ub);
  model.set_objective(lp::ObjSense::Maximize,
                      opt_art.objective_expr - heur_mean);
  result.stats = model.stats();

  // Snap a volume out of the dead epsilon bands below each level
  // boundary 2^l * T (the hi indicator row excludes (B - eps, B)).
  auto snap_levels = [&](double v) {
    for (int level = 0; level < cs_config.max_splits; ++level) {
      const double boundary = std::ldexp(cs_config.split_threshold, level);
      if (v > boundary - cs_config.epsilon && v < boundary) return boundary;
    }
    return v;
  };

  auto assemble_candidate = [&](std::vector<double> vols)
      -> std::optional<std::pair<double, std::vector<double>>> {
    for (double& v : vols) v = snap_levels(v);
    std::vector<double> assign(model.num_vars(), 0.0);
    for (std::size_t k = 0; k < vols.size(); ++k) {
      if (d.vars[k].valid()) assign[d.vars[k].id] = vols[k];
    }
    if (!complete_constraint_assignment(model, d.vars, options.constraints,
                                        cart, vols, assign)) {
      return std::nullopt;
    }
    // Level indicators are a deterministic function of the demand.
    for (const CsInstance& inst : instances) {
      for (std::size_t k = 0; k < inst.enc.level_ind.size(); ++k) {
        const auto& levels = inst.enc.level_ind[k];
        if (levels.empty()) continue;
        const int level = te::split_level(vols[k], cs_config);
        for (std::size_t l = 0; l < levels.size(); ++l) {
          assign[levels[l].id] = l == static_cast<std::size_t>(level) ? 1.0
                                                                      : 0.0;
        }
      }
    }
    const kkt::ParametricSolve opt_ps =
        kkt::solve_inner_at(opt_enc.inner, model, assign);
    if (!kkt::assemble_kkt_point(model, opt_enc.inner, opt_art, opt_ps,
                                 assign)) {
      return std::nullopt;
    }
    for (const CsInstance& inst : instances) {
      for (std::size_t part = 0; part < inst.enc.partitions.size(); ++part) {
        const kkt::ParametricSolve ps =
            kkt::solve_inner_at(inst.enc.partitions[part], model, assign);
        if (!kkt::assemble_kkt_point(model, inst.enc.partitions[part],
                                     inst.arts[part], ps, assign)) {
          return std::nullopt;
        }
      }
    }
    return std::make_pair(model.objective_value(assign), std::move(assign));
  };

  mip::MipCallbacks callbacks;
  if (options.use_primal_heuristic) {
    callbacks.primal_heuristic =
        [&](const std::vector<double>& relax)
        -> std::optional<std::pair<double, std::vector<double>>> {
      const std::vector<double> vols = extract_volumes(d, relax);
      auto best = assemble_candidate(vols);
      std::vector<double> snapped = vols;
      for (double& v : snapped) v = v >= d.ub / 2.0 ? d.ub : 0.0;
      if (auto cand = assemble_candidate(snapped)) {
        if (!best || cand->first > best->first) best = std::move(cand);
      }
      return best;
    };
  }
  callbacks.on_incumbent = [&](double obj, double /*bnb_sec*/,
                               const std::vector<double>&) {
    result.trace.emplace_back(watch.seconds(), obj);
  };

  // Seed: quantized pass on the direct POP-CS oracle, then polish.
  util::Stopwatch seed_watch;
  if (options.seed_search_seconds > 0.0) {
    class PopCsOracle final : public te::GapOracle {
     public:
      PopCsOracle(const net::Topology& topo, const te::PathSet& paths,
                  te::PopConfig pop, te::ClientSplitConfig cs,
                  std::vector<std::uint64_t> seeds)
          : lp_(topo, paths), pop_(pop), cs_(cs), seeds_(std::move(seeds)) {}
      [[nodiscard]] int num_leader_vars() const override {
        return lp_.paths().num_pairs();
      }
      [[nodiscard]] te::GapResult evaluate(
          const std::vector<double>& volumes) const override {
        count_evaluation();
        te::GapResult out;
        // OPT cold, every partition warm from its basis (as te::gap.h).
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
    const PopCsOracle oracle(topo_, paths_, config, cs_config, seeds);
    const search::MaskedGapOracle masked(oracle, d.include);
    search::SearchOptions seed_options;
    seed_options.time_limit_seconds = 0.5 * options.seed_search_seconds;
    seed_options.demand_ub = d.ub;
    seed_options.levels = {0.0, cs_config.split_threshold,
                           d.ub / config.num_partitions, d.ub};
    search::SearchResult seed = search::quantized_climb(masked, seed_options);
    search::SearchOptions polish_options;
    polish_options.time_limit_seconds = 0.5 * options.seed_search_seconds;
    polish_options.demand_ub = d.ub;
    polish_options.initial_point = seed.best_volumes;
    const search::SearchResult polished =
        search::hill_climb(masked, polish_options);
    if (polished.best.gap() > seed.best.gap()) seed = polished;
    if (seed.best.gap() > 0.0) {
      if (auto cand = assemble_candidate(masked.expand(seed.best_volumes))) {
        callbacks.initial_incumbents.push_back(std::move(*cand));
      }
    }
  }

  mip::MipOptions mip_options = options.mip;
  mip_options.time_limit_seconds = std::max(
      1e-3, mip_options.time_limit_seconds - seed_watch.seconds());
  const lp::Solution sol =
      mip::BranchAndBound(mip_options).solve(model, callbacks);
  finalize_result(model, topo_, d, opt_art.objective_expr, heur_mean, sol,
                  result);
  result.seconds = watch.seconds();
  return result;
}

AdversarialGapFinder::ProblemSizes AdversarialGapFinder::dp_problem_sizes(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  ProblemSizes sizes;
  {
    Model model;
    DemandVars d = make_demand_vars(model, topo_, paths_, options);
    te::MaxFlowOptions opt_options;
    opt_options.include = &d.include;
    te::FlowEncoding opt_enc =
        te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
    kkt::emit_kkt(model, opt_enc.inner, "opt.");
    te::DpConfig dp_config = config;
    if (dp_config.demand_ub <= 0.0) dp_config.demand_ub = d.ub;
    te::DpEncoding dp_enc = te::build_demand_pinning(
        model, topo_, paths_, d.vars, dp_config, "dp.", &d.include);
    kkt::emit_kkt(model, dp_enc.inner, "dp.");
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
  {
    Model model;
    DemandVars d = make_demand_vars(model, topo_, paths_, options);
    te::MaxFlowOptions opt_options;
    opt_options.include = &d.include;
    te::FlowEncoding opt_enc =
        te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
    kkt::materialize_constraints(model, opt_enc.inner);
    sizes.opt = model.stats();
  }
  return sizes;
}

AdversarialGapFinder::ProblemSizes AdversarialGapFinder::pop_problem_sizes(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  ProblemSizes sizes;
  {
    Model model;
    DemandVars d = make_demand_vars(model, topo_, paths_, options);
    te::MaxFlowOptions opt_options;
    opt_options.include = &d.include;
    te::FlowEncoding opt_enc =
        te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
    kkt::emit_kkt(model, opt_enc.inner, "opt.");
    for (std::size_t r = 0; r < seeds.size(); ++r) {
      te::PopConfig inst_config = config;
      inst_config.seed = seeds[r];
      te::PopEncoding enc = te::build_pop(model, topo_, paths_, d.exprs,
                                          inst_config,
                                          "pop" + std::to_string(r) + ".");
      for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
        kkt::emit_kkt(model, enc.partitions[part].inner,
                      "pop" + std::to_string(r) + "." + std::to_string(part) +
                          ".");
      }
    }
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
  {
    Model model;
    DemandVars d = make_demand_vars(model, topo_, paths_, options);
    te::MaxFlowOptions opt_options;
    opt_options.include = &d.include;
    te::FlowEncoding opt_enc =
        te::build_max_flow(model, topo_, paths_, d.exprs, "opt.", opt_options);
    kkt::materialize_constraints(model, opt_enc.inner);
    sizes.opt = model.stats();
  }
  return sizes;
}

}  // namespace metaopt::core
