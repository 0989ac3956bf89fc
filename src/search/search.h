// Black-box adversarial-input search (§3.4).
//
// These searchers treat the adversarial gap as a black box
// (heur::GapOracle) and climb it: hill climbing (Algorithm 1), simulated
// annealing, pure random sampling, and a quantized climber exploiting the
// §5 observation that worst-case gaps concentrate at extremum points.
// They are the paper's baselines for Fig. 3 — and also handy incumbent
// seeds for the white-box search. They are domain-neutral: any
// heur::GapOracle (TE demand volumes, bin-packing item sizes, ...) works
// unchanged.
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

  // Hill climbing / annealing neighborhood (Algorithm 1):
  /// Gaussian step stddev as a fraction of demand_ub (paper: 10% of link
  /// capacity).
  double sigma_fraction = 0.1;
  /// Patience K: failed neighbor draws before declaring a local maximum.
  int patience = 100;

  // Simulated annealing schedule (§3.4): t_{p+1} = gamma * t_p every
  // cooling_period iterations, starting from t0.
  double t0 = 500.0;
  double gamma = 0.1;
  int cooling_period = 100;

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
