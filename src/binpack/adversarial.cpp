#include "binpack/adversarial.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "binpack/encoding.h"
#include "core/single_shot.h"
#include "kkt/kkt_rewriter.h"
#include "util/stopwatch.h"

namespace metaopt::binpack {

namespace {

using lp::Model;
using lp::Var;

/// Clamps to the leader box and (for FFD) stably sorts the item blocks
/// by decreasing key, the canonical representative the sortedness rows
/// demand. Permuting items never changes what FFD or OPT see.
std::vector<double> canonical_sizes(std::vector<double> vols,
                                    const BinPackConfig& config) {
  const double ub = config.ub();
  for (double& v : vols) v = std::clamp(v, 0.0, ub);
  if (!config.decreasing) return vols;
  const int n = config.items;
  const int d = config.dims;
  std::vector<double> key(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < d; ++t) key[i] += vols[i * d + t];
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return key[a] > key[b]; });
  std::vector<double> out(vols.size());
  for (int r = 0; r < n; ++r) {
    for (int t = 0; t < d; ++t) out[r * d + t] = vols[order[r] * d + t];
  }
  return out;
}

}  // namespace

std::vector<double> quantize_levels(const BinPackConfig& config) {
  const double c = config.capacity;
  const double e = config.epsilon;
  const double ub = config.ub();
  std::vector<double> levels = {0.0,          0.26 * c, c / 4.0 + 2.0 * e,
                                c / 3.0 + 2.0 * e, 0.45 * c, c / 2.0 + 2.0 * e,
                                ub};
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  levels.erase(std::remove_if(levels.begin(), levels.end(),
                              [&](double l) { return l > ub; }),
               levels.end());
  return levels;
}

std::vector<double> worst_case_family(const BinPackConfig& config) {
  const int n = config.items;
  const int d = config.dims;
  const double a = std::min(0.45 * config.capacity, config.ub());
  const double b = std::min(0.26 * config.capacity, config.ub());
  const int groups = n / 3;
  std::vector<double> sizes(static_cast<std::size_t>(n) * d, 0.0);
  for (int i = 0; i < n; ++i) {
    const double v = i < groups ? a : (i < 3 * groups ? b : 0.0);
    for (int t = 0; t < d; ++t) sizes[i * d + t] = v;
  }
  return sizes;
}

heur::GapFindResult find_ffd_gap(const BinPackConfig& config,
                                 const heur::FindOptions& options) {
  const util::Stopwatch watch;
  const int n = config.items;
  const int d = config.dims;
  const double ub = config.ub();

  Model model;
  std::vector<Var> svars;
  svars.reserve(static_cast<std::size_t>(n) * d);
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < d; ++t) {
      const std::string name =
          d == 1 ? "s[" + std::to_string(i) + "]"
                 : "s[" + std::to_string(i) + "," + std::to_string(t) + "]";
      svars.push_back(model.add_var(name, 0.0, ub));
    }
  }
  struct State {
    FfdEncoding enc;
    kkt::KktArtifacts opt;
  };
  auto s = std::make_shared<State>();
  s->enc = build_ffd(model, svars, config, config.decreasing ? "ffd." : "ff.");
  s->opt = kkt::emit_kkt(model, s->enc.inner, "opt.");

  // Embedded objective: FF bins minus the volume-LP OPT bound — an
  // upper-bounding surrogate of the true gap (encoding.h). The exact
  // re-scorer below decides the reported answer.
  model.set_objective(lp::ObjSense::Maximize,
                      s->enc.bins_used - s->opt.objective_expr);

  core::SingleShot shot;
  shot.leader = svars;
  shot.leader_ub = ub;
  shot.followers = {{&s->enc.inner, &s->opt}};
  shot.opt_expr = s->opt.objective_expr;
  shot.heur_expr = s->enc.bins_used;
  shot.normalizer = config.num_bins();
  shot.state = s;
  shot.snap = [config](std::vector<double>& sizes) {
    sizes = canonical_sizes(std::move(sizes), config);
  };
  shot.complete = [s](const std::vector<double>& sizes,
                      std::vector<double>& assign) {
    return complete_ffd_assignment(s->enc, sizes, assign).has_value();
  };
  // Fractional relaxation points usually land in the epsilon dead band;
  // rounded variants snap out of it. Grid rounding keeps local
  // structure, level snapping jumps to the §5 extremum levels.
  const double grid = 0.01 * config.capacity;
  shot.roundings = {
      [grid, ub](double v) {
        return std::clamp(std::round(v / grid) * grid, 0.0, ub);
      },
      [levels = quantize_levels(config)](double v) {
        return core::nearest_level(v, levels);
      }};
  // The worst-case family is a pure function of the config, so it seeds
  // B&B and reaches the re-scorer even when the wall-clock-budgeted
  // black-box pass is off.
  shot.trials = {worst_case_family(config)};
  shot.make_oracle = [config] {
    return std::make_unique<BinPackGapOracle>(config);
  };
  shot.seed_levels = quantize_levels(config);

  // The embedded objective is an upper-bounding surrogate (volume-LP
  // OPT), and its maximizer can have a SMALLER true gap than a point it
  // dominates: n items just over C/2 score bins - volume ~ n/2 in the
  // surrogate but re-solve to gap 0 (OPT needs n bins too), while the
  // 0.45/0.26 family scores ~1 and re-solves to a genuine gap of n/6.
  // So the reported answer is the argmax of the exact gap (simulated
  // first-fit + assignment-MIP OPT) over the B&B incumbent AND the seed
  // trials; the surrogate decides nothing beyond the B&B's own pruning.
  core::SingleShotBudget budget;
  budget.mip = core::find_mip_options(options);
  budget.seed_search_seconds = options.seed_search_seconds;
  shot.rescore = [config, certify = budget.mip.certify](
                     const std::vector<std::vector<double>>& candidates,
                     heur::GapFindResult& result) {
    result.certified = false;
    mip::MipOptions opt_mip = default_opt_mip();
    opt_mip.certify = certify;
    opt_mip.lp.certify = certify;
    bool have_exact = false;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (std::find(candidates.begin(), candidates.begin() + c,
                    candidates[c]) != candidates.begin() + c) {
        continue;  // duplicate; keep one OPT re-solve per distinct point
      }
      const FirstFitResult ff = simulate_first_fit(candidates[c], config);
      if (!ff.feasible) continue;
      const OptBinResult opt = solve_opt_bins(candidates[c], config, opt_mip);
      if (opt.status != lp::SolveStatus::Optimal) continue;
      const double gap = static_cast<double>(ff.bins_used - opt.bins_used);
      // Strict improvement only: ties keep the earliest candidate (the
      // B&B incumbent when it has one), so reruns stay deterministic.
      if (have_exact && gap <= result.gap) continue;
      have_exact = true;
      result.volumes = candidates[c];
      result.gap = gap;
      result.heur_value = ff.bins_used;
      result.opt_value = opt.bins_used;
      result.certified = opt.certified;
    }
    if (!have_exact && result.has_solution()) {
      // No OPT re-solve finished inside its budget: keep the surrogate
      // answer of the B&B incumbent, with its simulated bin count.
      result.heur_value = simulate_first_fit(result.volumes, config).bins_used;
    }
  };

  return core::solve_single_shot(model, shot, budget, watch);
}

}  // namespace metaopt::binpack
