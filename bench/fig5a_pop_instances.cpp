// Figure 5a: POP's random partitioning makes POP(I) a random variable.
// Searching against a single random partition finds inputs whose gap is
// large *for that partition* but small on fresh partitions; averaging
// over 5 instantiations finds inputs that are consistently bad (§3.2).
//
// We reproduce the experiment: find adversarial demands against 1 vs 5
// partition instantiations, then evaluate both inputs on 10 held-out
// random partitions and report the train gap and the held-out mean gap.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/adversarial.h"
#include "domains/te_instances.h"
#include "te/gap.h"
#include "util/stats.h"

namespace {

using namespace metaopt;

constexpr double kBudget = 45.0;
constexpr int kMaskPairs = 40;  // adversarial support size; see bench_common

void Fig5a_TrainInstances(benchmark::State& state) {
  const int train_instances = static_cast<int>(state.range(0));
  const net::Topology topo = net::topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  core::AdversarialGapFinder finder(topo, paths);

  te::PopConfig pop;
  pop.num_partitions = 2;
  std::vector<std::uint64_t> train_seeds;
  for (int i = 1; i <= train_instances; ++i) train_seeds.push_back(i);
  std::vector<std::uint64_t> heldout_seeds;
  for (int i = 101; i <= 110; ++i) heldout_seeds.push_back(i);

  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.seed_search_seconds = bench::scaled(kBudget) * 0.6;
  options.pair_mask = domains::make_support_mask(paths.num_pairs(), kMaskPairs);

  double train_gap = 0.0, heldout_gap = 0.0;
  for (auto _ : state) {
    const core::AdversarialResult r =
        finder.find_pop_gap(pop, train_seeds, options);
    train_gap = r.normalized_gap;
    // Held-out evaluation: mean gap over 10 fresh partitions.
    const te::PopGapOracle heldout(topo, paths, pop, heldout_seeds);
    const heur::GapResult held = heldout.evaluate(r.volumes);
    heldout_gap = held.gap() / topo.total_capacity();
    auto out = bench::csv("fig5a");
    out.row("fig5a", "train_insts=" + std::to_string(train_instances),
            "train", train_gap, "");
    out.row("fig5a", "train_insts=" + std::to_string(train_instances),
            "heldout10", heldout_gap, "");
  }
  state.counters["train_norm_gap"] = train_gap;
  state.counters["heldout_norm_gap"] = heldout_gap;
  state.SetLabel(std::to_string(train_instances) + " train instance(s)");
}

BENCHMARK(Fig5a_TrainInstances)
    ->Unit(benchmark::kSecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(5);

}  // namespace

BENCHMARK_MAIN();
