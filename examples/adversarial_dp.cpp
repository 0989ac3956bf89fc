// Find adversarial demands for Demand Pinning on a production topology,
// comparing the white-box single-shot method with black-box baselines.
//
// Run:  ./build/examples/adversarial_dp [topology] [threshold] [seconds]
//   topology  b4 | abilene | swan          (default abilene)
//   threshold pinning threshold in units   (default 50 = 5% of capacity)
//   seconds   search budget per method     (default 15)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "heur/instance.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "search/search.h"
#include "te/demand.h"
#include "te/gap.h"

using namespace metaopt;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "abilene";
  const double threshold = argc > 2 ? std::atof(argv[2]) : 50.0;
  const double budget = argc > 3 ? std::atof(argv[3]) : 15.0;

  net::Topology topo = name == "b4"     ? net::topologies::b4()
                       : name == "swan" ? net::topologies::swan()
                                        : net::topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  std::printf("topology %s: %d nodes, %d directed edges, %d demand pairs\n",
              topo.name().c_str(), topo.num_nodes(), topo.num_edges(),
              paths.num_pairs());

  te::DpConfig dp;
  dp.threshold = threshold;

  // --- white box ------------------------------------------------------
  heur::InstanceConfig config;
  config.heuristic = "dp";
  config.topology = name == "b4" || name == "swan" ? name : "abilene";
  config.threshold = threshold;
  heur::FindOptions options;
  options.budget_seconds = budget;
  options.seed_search_seconds = budget * 0.3;
  options.certify = lp::kCertifyByDefault;
  const heur::GapFindResult white =
      heur::make_instance(config)->find_gap(options);
  std::printf("\nwhite box (KKT single-shot): gap = %.1f (%.2f%% of total "
              "capacity), %ld nodes, %.1fs\n",
              white.gap, 100.0 * white.normalized_gap, white.nodes,
              white.seconds);

  // --- black boxes ----------------------------------------------------
  search::SearchOptions so;
  so.time_limit_seconds = budget;
  so.demand_ub = topo.max_capacity();
  {
    te::DpGapOracle oracle(topo, paths, dp);
    const search::SearchResult r = search::hill_climb(oracle, so);
    std::printf("hill climbing:               gap = %.1f (%.2f%%), %ld "
                "evaluations\n",
                r.best.gap(), 100.0 * r.best.gap() / topo.total_capacity(),
                r.evaluations);
  }
  {
    te::DpGapOracle oracle(topo, paths, dp);
    const search::SearchResult r = search::simulated_annealing(oracle, so);
    std::printf("simulated annealing:         gap = %.1f (%.2f%%), %ld "
                "evaluations\n",
                r.best.gap(), 100.0 * r.best.gap() / topo.total_capacity(),
                r.evaluations);
  }

  // --- what does the bad input look like? -----------------------------
  std::printf("\nlargest adversarial demands found by the white box:\n");
  int shown = 0;
  for (int k = 0; k < paths.num_pairs() && shown < 12; ++k) {
    if (white.volumes.empty()) break;
    if (white.volumes[k] > 1e-6) {
      const auto [s, t] = paths.pair(k);
      std::printf("  %2d -> %-2d : %8.1f %s\n", s, t, white.volumes[k],
                  white.volumes[k] <= threshold ? "(pinned)" : "");
      ++shown;
    }
  }
  return 0;
}
