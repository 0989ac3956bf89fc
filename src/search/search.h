// Black-box adversarial-input search (§3.4).
//
// These searchers treat the adversarial gap as a black box
// (heur::GapOracle) and climb it: hill climbing (Algorithm 1), simulated
// annealing, pure random sampling, and a quantized climber exploiting the
// §5 observation that worst-case gaps concentrate at extremum points.
// They are the paper's baselines for Fig. 3 — and also handy incumbent
// seeds for the white-box search. They are domain-neutral: any
// heur::GapOracle (TE demand volumes, bin-packing item sizes, ...) works
// unchanged. The neighborhood (step size, patience K) and the annealing
// schedule are the paper's §3.4 values, fixed in search.cpp; callers set
// only the budget, the leader box, the seed and the starting points.
#pragma once

#include <cstdint>
#include <vector>

#include "heur/gap.h"

namespace metaopt::search {

struct SearchOptions {
  double time_limit_seconds = 10.0;
  long max_evaluations = 1000000000L;
  /// Search box: every leader variable in [0, demand_ub]. (Named after
  /// the TE demand box; it is the generic leader-box upper bound.)
  double demand_ub = 1000.0;
  std::uint64_t seed = 1;

  // Quantized climbing levels (defaults to {0, demand_ub} plus the DP
  // threshold when the caller supplies one).
  std::vector<double> levels;

  /// Optional starting point for the first hill-climb/annealing restart
  /// (e.g. polishing a quantized solution). Later restarts are random.
  std::vector<double> initial_point;
};

struct SearchResult {
  std::vector<double> best_volumes;
  heur::GapResult best;
  long evaluations = 0;
  long restarts = 0;
  double seconds = 0.0;
  /// Best-gap-so-far trace: (wall seconds, gap) at every improvement —
  /// the Fig. 3 series.
  std::vector<std::pair<double, double>> trace;
};

/// Algorithm 1 with random restarts until the budget is exhausted.
SearchResult hill_climb(const heur::GapOracle& oracle,
                        const SearchOptions& options);

/// Simulated annealing with restarts (Kirkpatrick et al.; §3.4 schedule).
SearchResult simulated_annealing(const heur::GapOracle& oracle,
                                 const SearchOptions& options);

/// Uniform random sampling of the leader box (sanity baseline).
SearchResult random_search(const heur::GapOracle& oracle,
                           const SearchOptions& options);

/// Coordinate hill climbing restricted to the quantized level set
/// (options.levels; §5's extremum-point speedup).
SearchResult quantized_climb(const heur::GapOracle& oracle,
                             const SearchOptions& options);

}  // namespace metaopt::search
