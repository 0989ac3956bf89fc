// Find demands that are bad for POP *in expectation* (§3.2), then check
// that they generalize to partitions the search never saw — the
// single-instance vs multi-instance contrast of Figure 5a.
//
// Run:  ./build/examples/adversarial_pop [partitions] [instances] [seconds]
#include <cstdio>
#include <cstdlib>

#include "heur/instance.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "te/demand.h"
#include "te/gap.h"
#include "util/stats.h"

using namespace metaopt;

int main(int argc, char** argv) {
  const int partitions = argc > 1 ? std::atoi(argv[1]) : 2;
  const int instances = argc > 2 ? std::atoi(argv[2]) : 3;
  const double budget = argc > 3 ? std::atof(argv[3]) : 20.0;

  const net::Topology topo = net::topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  const double cap = topo.total_capacity();

  te::PopConfig pop;
  pop.num_partitions = partitions;
  std::vector<std::uint64_t> train_seeds;
  for (int i = 1; i <= instances; ++i) train_seeds.push_back(i);

  heur::InstanceConfig config;
  config.heuristic = "pop";
  config.topology = "b4";
  config.partitions = partitions;
  config.pop_seeds = train_seeds;
  // Keep the single-shot model tractable (see DESIGN.md: scaling is the
  // paper's stated open problem): restrict the adversarial support to
  // every third of B4's 132 pairs.
  config.support = 44;
  heur::FindOptions options;
  options.budget_seconds = budget;
  options.seed_search_seconds = budget * 0.25;
  options.certify = lp::kCertifyByDefault;

  std::printf("searching adversarial demands for POP (c=%d) against %d "
              "training partition instantiation(s)...\n",
              partitions, instances);
  const heur::GapFindResult r = heur::make_instance(config)->find_gap(options);
  std::printf("training gap (mean over %d instances): %.1f (%.2f%% of "
              "capacity)\n",
              instances, r.gap, 100.0 * r.normalized_gap);

  // Held-out generalization: 10 fresh random partitions.
  std::vector<std::uint64_t> heldout;
  for (int i = 101; i <= 110; ++i) heldout.push_back(i);
  te::PopGapOracle oracle(topo, paths, pop, heldout);
  const heur::GapResult check = oracle.evaluate(r.volumes);
  const std::vector<double> per = oracle.per_instance_heur(r.volumes);
  std::printf("held-out gap on 10 fresh partitions: mean %.1f (%.2f%%)\n",
              check.gap(), 100.0 * check.gap() / cap);
  std::printf("  per-instance POP values: ");
  for (double v : per) std::printf("%.0f ", v);
  std::printf("  (OPT = %.0f)\n", check.opt);
  std::printf("\nThe more training instances, the smaller the train/held-out "
              "gap difference (Fig. 5a).\n");
  return 0;
}
