// Quickstart: the paper's Figure-1 story, end to end.
//
// 1. Build the 3-node topology with unidirectional links.
// 2. Evaluate the Demand Pinning heuristic and OPT on the paper's
//    demands — DP carries 160 units, OPT 260 (gap 100, over 38%).
// 3. Ask the adversarial gap finder for the *provably* worst input on
//    this topology: it rediscovers exactly that demand vector and
//    certifies that no worse one exists.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "heur/instance.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "te/demand.h"
#include "te/gap.h"

using namespace metaopt;

int main() {
  // --- the Fig. 1 topology and demands -------------------------------
  const net::Topology topo = net::topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);

  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 1) volumes[k] = 100.0;  // 1 -> 2
    if (s == 0 && t == 2) volumes[k] = 50.0;   // 1 -> 3 (at threshold)
    if (s == 1 && t == 2) volumes[k] = 110.0;  // 2 -> 3
  }

  te::DpConfig dp;
  dp.threshold = 50.0;  // 5% of a 1000-unit link; Fig. 1 uses 50

  const te::DpGapOracle oracle(topo, paths, dp);
  const heur::GapResult gap = oracle.evaluate(volumes);
  std::printf("Figure 1 demands:   OPT = %.0f   DP = %.0f   gap = %.0f "
              "(%.1f%% of OPT)\n",
              gap.opt, gap.heur, gap.gap(), 100.0 * gap.gap() / gap.opt);

  // --- now let the framework find the worst case by itself -----------
  heur::InstanceConfig config;
  config.heuristic = "dp";
  config.topology = "fig1";
  config.threshold = dp.threshold;
  config.leader_ub = 200.0;
  heur::FindOptions options;
  options.budget_seconds = 30.0;
  options.seed_search_seconds = 3.0;
  options.certify = lp::kCertifyByDefault;
  const heur::GapFindResult worst =
      heur::make_instance(config)->find_gap(options);

  std::printf("\nAdversarial search: status=%s\n",
              lp::to_string(worst.status));
  std::printf("  worst-case gap  = %.2f (bound %.2f -> %s)\n", worst.gap,
              worst.bound,
              worst.status == lp::SolveStatus::Optimal ? "proved optimal"
                                                       : "not closed");
  std::printf("  OPT = %.2f, DP = %.2f, normalized gap = %.4f\n",
              worst.opt_value, worst.heur_value, worst.normalized_gap);
  std::printf("  adversarial demands:\n");
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (worst.volumes[k] > 1e-6) {
      const auto [s, t] = paths.pair(k);
      std::printf("    %d -> %d : %.1f\n", s + 1, t + 1, worst.volumes[k]);
    }
  }
  return 0;
}
