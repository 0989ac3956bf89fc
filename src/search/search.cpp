#include "search/search.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace metaopt::search {

namespace {

const obs::Counter c_evaluations = obs::counter("search.evaluations");
const obs::Counter c_improvements = obs::counter("search.improvements");
const obs::Counter c_restarts = obs::counter("search.restarts");
const obs::Histogram h_run_ns = obs::histogram("search.run_ns");

// Hill climbing / annealing neighborhood (Algorithm 1, §3.4).
/// Gaussian step stddev as a fraction of the leader box (paper: 10% of
/// link capacity).
constexpr double kSigmaFraction = 0.1;
/// Patience K: failed neighbor draws before declaring a local maximum.
constexpr int kPatience = 100;

// Simulated annealing schedule (§3.4): t_{p+1} = kGamma * t_p every
// kCoolingPeriod iterations, starting from kT0; a run ends once the
// temperature falls below 1e-6 * kT0.
constexpr double kT0 = 500.0;
constexpr double kGamma = 0.1;
constexpr int kCoolingPeriod = 100;

/// Shared bookkeeping: budget checks and best-so-far tracking.
class Tracker {
 public:
  Tracker(const heur::GapOracle& oracle, const SearchOptions& options)
      : oracle_(oracle), options_(options) {
    result_.best_volumes.assign(oracle.num_leader_vars(), 0.0);
    result_.best = oracle.evaluate(result_.best_volumes);  // gap(0) = 0
    ++result_.evaluations;
    c_evaluations.inc();
  }

  [[nodiscard]] bool budget_left() const {
    return watch_.seconds() < options_.time_limit_seconds &&
           result_.evaluations < options_.max_evaluations;
  }

  /// Evaluates `volumes`, updates the incumbent, returns the gap.
  double evaluate(const std::vector<double>& volumes) {
    const heur::GapResult r = oracle_.evaluate(volumes);
    ++result_.evaluations;
    c_evaluations.inc();
    if (r.gap() > result_.best.gap()) {
      result_.best = r;
      result_.best_volumes = volumes;
      result_.trace.emplace_back(watch_.seconds(), r.gap());
      c_improvements.inc();
      obs::record_counter("search.best_gap", r.gap());
    }
    return r.gap();
  }

  SearchResult finish() {
    result_.seconds = watch_.seconds();
    return std::move(result_);
  }

  void count_restart() {
    ++result_.restarts;
    c_restarts.inc();
  }

 private:
  const heur::GapOracle& oracle_;
  const SearchOptions& options_;
  util::Stopwatch watch_;
  SearchResult result_;
};

std::vector<double> random_point(int n, double ub, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(0.0, ub);
  return v;
}

/// d_aux = clamp(d + z, 0, ub), z ~ N(0, sigma^2 I)  (Algorithm 1 step).
std::vector<double> gaussian_neighbor(const std::vector<double>& d,
                                      double sigma, double ub,
                                      util::Rng& rng) {
  std::vector<double> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[i] = std::clamp(d[i] + rng.normal(0.0, sigma), 0.0, ub);
  }
  return out;
}

}  // namespace

SearchResult hill_climb(const heur::GapOracle& oracle,
                        const SearchOptions& options) {
  MO_SPAN_HIST("search.hill_climb", h_run_ns);
  util::Rng rng(options.seed);
  Tracker tracker(oracle, options);
  const double sigma = kSigmaFraction * options.demand_ub;

  // A wrong-sized initial point is a caller bug (typically a mask/oracle
  // dimension mismatch); falling back to a random start silently would
  // hide it, so say so once up front.
  const bool use_initial =
      options.initial_point.size() ==
      static_cast<std::size_t>(oracle.num_leader_vars());
  if (!options.initial_point.empty() && !use_initial) {
    MO_LOG(Warn) << "hill_climb: ignoring initial_point of size "
                 << options.initial_point.size() << " (oracle expects "
                 << oracle.num_leader_vars() << " demands); starting random";
  }

  bool first_restart = true;
  while (tracker.budget_left()) {
    tracker.count_restart();
    std::vector<double> d =
        first_restart && use_initial
            ? options.initial_point
            : random_point(oracle.num_leader_vars(), options.demand_ub, rng);
    first_restart = false;
    double gap_d = tracker.evaluate(d);
    int failures = 0;
    while (failures < kPatience && tracker.budget_left()) {
      std::vector<double> aux =
          gaussian_neighbor(d, sigma, options.demand_ub, rng);
      const double gap_aux = tracker.evaluate(aux);
      if (gap_aux > gap_d) {
        d = std::move(aux);
        gap_d = gap_aux;
        failures = 0;  // Algorithm 1 resets k on improvement
      } else {
        ++failures;
      }
    }
  }
  return tracker.finish();
}

SearchResult simulated_annealing(const heur::GapOracle& oracle,
                                 const SearchOptions& options) {
  MO_SPAN_HIST("search.simulated_annealing", h_run_ns);
  util::Rng rng(options.seed);
  Tracker tracker(oracle, options);
  const double sigma = kSigmaFraction * options.demand_ub;

  while (tracker.budget_left()) {
    tracker.count_restart();
    std::vector<double> d =
        random_point(oracle.num_leader_vars(), options.demand_ub, rng);
    double gap_d = tracker.evaluate(d);
    double temperature = kT0;
    long iter = 0;
    // One annealing run: cool until the move probability is negligible.
    while (temperature > 1e-6 * kT0 && tracker.budget_left()) {
      std::vector<double> aux =
          gaussian_neighbor(d, sigma, options.demand_ub, rng);
      const double gap_aux = tracker.evaluate(aux);
      const bool accept =
          gap_aux > gap_d ||
          rng.uniform(0.0, 1.0) < std::exp((gap_aux - gap_d) / temperature);
      if (accept) {
        d = std::move(aux);
        gap_d = gap_aux;
      }
      if (++iter % kCoolingPeriod == 0) temperature *= kGamma;
    }
  }
  return tracker.finish();
}

SearchResult random_search(const heur::GapOracle& oracle,
                           const SearchOptions& options) {
  MO_SPAN_HIST("search.random_search", h_run_ns);
  util::Rng rng(options.seed);
  Tracker tracker(oracle, options);
  while (tracker.budget_left()) {
    tracker.evaluate(random_point(oracle.num_leader_vars(), options.demand_ub, rng));
  }
  return tracker.finish();
}

SearchResult quantized_climb(const heur::GapOracle& oracle,
                             const SearchOptions& options) {
  MO_SPAN_HIST("search.quantized_climb", h_run_ns);
  util::Rng rng(options.seed);
  Tracker tracker(oracle, options);
  std::vector<double> levels = options.levels;
  if (levels.empty()) levels = {0.0, options.demand_ub};
  const int n = oracle.num_leader_vars();

  while (tracker.budget_left()) {
    tracker.count_restart();
    // Random level assignment.
    std::vector<double> d(n);
    for (double& x : d) {
      x = levels[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(levels.size()) - 1))];
    }
    double gap_d = tracker.evaluate(d);
    // Coordinate passes: try every (coordinate, level) move; stop when a
    // full pass yields no improvement.
    bool improved = true;
    while (improved && tracker.budget_left()) {
      improved = false;
      for (int k = 0; k < n && tracker.budget_left(); ++k) {
        const double original = d[k];
        for (double level : levels) {
          if (level == original) continue;
          d[k] = level;
          const double gap_aux = tracker.evaluate(d);
          if (gap_aux > gap_d) {
            gap_d = gap_aux;
            improved = true;
            break;  // keep the move
          }
          d[k] = original;
        }
      }
    }
  }
  return tracker.finish();
}

}  // namespace metaopt::search
