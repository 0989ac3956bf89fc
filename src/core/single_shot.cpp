#include "core/single_shot.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "kkt/parametric.h"
#include "obs/obs.h"
#include "search/search.h"

namespace metaopt::core {

namespace {

using Candidate = std::pair<double, std::vector<double>>;

/// Share of the seeding budget for the quantized climb; the polish from
/// its best point gets the rest.
constexpr double kClimbShare = 0.6;

/// Keeps the better of `best` and `cand`; ties keep the earlier one.
void keep_best(std::optional<Candidate>& best,
               std::optional<Candidate> cand) {
  if (cand && (!best || cand->first > best->first)) best = std::move(cand);
}

/// True when `a` and `b` hold the same bit patterns.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

class Pipeline {
 public:
  /// Builds one InnerLp per follower, solved with `lp`.
  Pipeline(const lp::Model& model, const SingleShot& shot,
           const lp::SimplexOptions& lp)
      : model_(model), shot_(shot) {
    inner_lps_.reserve(shot.followers.size());
    for (const Follower& f : shot.followers) {
      inner_lps_.push_back(
          std::make_unique<const kkt::InnerLp>(*f.inner, model, lp));
    }
  }

  /// The leader values of a model point, clamped to the leader box. The
  /// `+ 0.0` turns a -0.0 (which std::clamp passes through) into +0.0:
  /// same_bits and the inner solve cache compare bit patterns.
  [[nodiscard]] std::vector<double> leader_values(
      const std::vector<double>& values) const {
    std::vector<double> out(shot_.leader.size(), 0.0);
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (shot_.leader[k].valid()) {
        out[k] =
            std::clamp(values[shot_.leader[k].id], 0.0, shot_.leader_ub) + 0.0;
      }
    }
    return out;
  }

  /// Lifts a leader vector into a complete feasible single-shot
  /// assignment by direct solves, or nullopt.
  [[nodiscard]] std::optional<Candidate> assemble(
      std::vector<double> leader) const {
    if (shot_.snap) shot_.snap(leader);
    std::vector<double> assign(model_.num_vars(), 0.0);
    for (std::size_t k = 0; k < leader.size(); ++k) {
      if (shot_.leader[k].valid()) assign[shot_.leader[k].id] = leader[k];
    }
    if (shot_.complete && !shot_.complete(leader, assign)) {
      return std::nullopt;
    }
    for (std::size_t i = 0; i < inner_lps_.size(); ++i) {
      const kkt::InnerLp& lp = *inner_lps_[i];
      if (!kkt::assemble_kkt_point(lp, *shot_.followers[i].kkt,
                                   lp.solve(assign), assign)) {
        return std::nullopt;
      }
    }
    return Candidate(model_.objective_value(assign), std::move(assign));
  }

  /// The node primal heuristic: the relaxation's leader values, then
  /// each rounding of them that differs from every vector tried before
  /// (a repeat would assemble the same candidate, and ties keep the
  /// earlier one).
  [[nodiscard]] std::optional<Candidate> round(
      const std::vector<double>& relax) const {
    MO_SPAN("core.primal_heuristic");
    std::vector<std::vector<double>> tried{leader_values(relax)};
    std::optional<Candidate> best = assemble(tried.front());
    for (const auto& rounding : shot_.roundings) {
      std::vector<double> rounded = tried.front();
      for (double& v : rounded) v = rounding(v);
      if (std::ranges::any_of(tried, [&](const std::vector<double>& t) {
            return same_bits(t, rounded);
          })) {
        continue;
      }
      keep_best(best, assemble(rounded));
      tried.push_back(std::move(rounded));
    }
    return best;
  }

  /// The deterministic trials plus, with a budget, the best points of a
  /// quantized climb and of a polish from it.
  [[nodiscard]] std::vector<std::vector<double>> seed_trials(
      double seconds) const {
    std::vector<std::vector<double>> trials = shot_.trials;
    if (seconds <= 0.0 || !shot_.make_oracle) return trials;
    const std::unique_ptr<heur::GapOracle> oracle = shot_.make_oracle();
    std::vector<bool> include(shot_.leader.size());
    for (std::size_t k = 0; k < include.size(); ++k) {
      include[k] = shot_.leader[k].valid();
    }
    const heur::MaskedGapOracle masked(*oracle, include);
    search::SearchOptions climb;
    climb.time_limit_seconds = kClimbShare * seconds;
    climb.demand_ub = shot_.leader_ub;
    climb.levels = shot_.seed_levels;
    const search::SearchResult seed = search::quantized_climb(masked, climb);
    search::SearchOptions polish;
    polish.time_limit_seconds = (1.0 - kClimbShare) * seconds;
    polish.demand_ub = shot_.leader_ub;
    polish.initial_point = seed.best_volumes;
    const search::SearchResult polished = search::hill_climb(masked, polish);
    for (const search::SearchResult* r : {&seed, &polished}) {
      if (!r->best_volumes.empty()) {
        trials.push_back(masked.expand(r->best_volumes));
      }
    }
    return trials;
  }

 private:
  const lp::Model& model_;
  const SingleShot& shot_;
  /// One per follower, in shot_.followers order.
  std::vector<std::unique_ptr<const kkt::InnerLp>> inner_lps_;
};

}  // namespace

mip::MipOptions find_mip_options(const heur::FindOptions& options) {
  mip::MipOptions mip;
  mip.time_limit_seconds = options.budget_seconds;
  mip.threads = options.mip_threads;
  mip.certify = options.certify || lp::kCertifyByDefault;
  mip.lp.certify = mip.certify;
  return mip;
}

double nearest_level(double v, const std::vector<double>& levels) {
  double pick = levels.front();
  for (const double l : levels) {
    if (std::abs(v - l) < std::abs(v - pick)) pick = l;
  }
  return pick;
}

heur::GapFindResult solve_single_shot(const lp::Model& model,
                                      const SingleShot& shot,
                                      const SingleShotBudget& budget,
                                      const util::Stopwatch& watch) {
  heur::GapFindResult result;
  result.stats = model.stats();
  const Pipeline pipeline(model, shot, budget.mip.lp);

  mip::MipCallbacks callbacks;
  if (budget.use_primal_heuristic) {
    callbacks.primal_heuristic = [&](const std::vector<double>& relax) {
      return pipeline.round(relax);
    };
  }
  callbacks.on_incumbent = [&](double obj, double /*bnb_sec*/,
                               const std::vector<double>&) {
    // Trace times count from the start of the whole find (build and
    // seeding included) so Fig. 3 series compose correctly.
    result.trace.emplace_back(watch.seconds(), obj);
  };

  // The best assembled trial seeds B&B; every trial is also a candidate
  // for the exact re-scorer.
  const std::vector<std::vector<double>> trials =
      pipeline.seed_trials(budget.seed_search_seconds);
  std::optional<Candidate> seed;
  for (const std::vector<double>& t : trials) {
    keep_best(seed, pipeline.assemble(t));
  }
  if (seed && seed->first > 0.0) {
    callbacks.initial_incumbents.push_back(std::move(*seed));
  }

  mip::MipOptions mip = budget.mip;
  mip.time_limit_seconds =
      std::max(1e-3, mip.time_limit_seconds - watch.seconds());
  const lp::Solution sol = mip::BranchAndBound(mip).solve(model, callbacks);

  result.status = sol.status;
  result.nodes = sol.iterations;
  result.bound = sol.best_bound;
  result.certified = sol.certified;
  // A TimeLimit status can arrive without any incumbent: values empty.
  if (sol.has_solution() && !sol.values.empty()) {
    result.gap = sol.objective;
    result.opt_value = model.eval(shot.opt_expr, sol.values);
    result.heur_value = model.eval(shot.heur_expr, sol.values);
    result.volumes = pipeline.leader_values(sol.values);
  }
  if (shot.rescore) {
    std::vector<std::vector<double>> candidates;
    candidates.reserve(trials.size() + 1);
    if (result.has_solution()) candidates.push_back(result.volumes);
    for (std::vector<double> t : trials) {
      if (shot.snap) shot.snap(t);
      candidates.push_back(std::move(t));
    }
    shot.rescore(candidates, result);
  }
  result.normalized_gap = result.gap / shot.normalizer;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace metaopt::core
