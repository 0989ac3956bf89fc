// Ablation (paper §5, "Scaling to larger problem sizes"): the KKT
// rewrite (complementarity + branching; yields verified adversarial
// inputs = lower bounds) vs the primal-dual rewrite with McCormick
// envelopes (no complementarity; yields certified upper bounds, and for
// POP a single LP). Together they bracket the worst case:
//
//     KKT found gap  <=  worst case  <=  primal-dual bound.
//
// Also ablates the branch-and-bound primal heuristic (incumbents from
// direct re-evaluation) and the quantized seed, quantifying how much of
// the white-box quality each component contributes.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/adversarial.h"
#include "core/gap_bound.h"
#include "domains/te_instances.h"

namespace {

using namespace metaopt;

constexpr double kBudget = 30.0;
constexpr int kMaskPairs = 30;

struct Fixture {
  net::Topology topo = net::topologies::b4();
  te::PathSet paths{topo, te::all_pairs(topo), 2};
  te::DpConfig dp;
  te::PopConfig pop;
  std::vector<std::uint64_t> pop_seeds{1, 2};
  std::vector<bool> mask;

  Fixture() {
    dp.threshold = 50.0;
    pop.num_partitions = 2;
    mask = domains::make_support_mask(paths.num_pairs(), kMaskPairs);
  }
};

void Ablation_KktSearch_DP(benchmark::State& state) {
  Fixture f;
  core::AdversarialGapFinder finder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.seed_search_seconds = bench::scaled(kBudget) * 0.3;
  options.pair_mask = f.mask;
  double gap = 0.0, bound = 0.0;
  for (auto _ : state) {
    const auto r = finder.find_dp_gap(f.dp, options);
    gap = r.normalized_gap;
    bound = r.bound / f.topo.total_capacity();
    auto out = bench::csv("ablation");
    out.row("ablation", "dp.kkt", "lower", gap, "");
  }
  state.counters["found_norm_gap"] = gap;
  state.counters["bnb_bound"] = bound;
}

void Ablation_PrimalDualBound_DP(benchmark::State& state) {
  Fixture f;
  core::GapBounder bounder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.pair_mask = f.mask;
  double bound = 0.0, secs = 0.0;
  for (auto _ : state) {
    const auto r = bounder.bound_dp_gap(f.dp, options);
    bound = r.normalized_upper_bound;
    secs = r.seconds;
    auto out = bench::csv("ablation");
    out.row("ablation", "dp.primal_dual", "upper", bound, secs);
  }
  state.counters["upper_norm_bound"] = bound;
  state.counters["bound_secs"] = secs;
}

void Ablation_KktSearch_POP(benchmark::State& state) {
  Fixture f;
  core::AdversarialGapFinder finder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.seed_search_seconds = bench::scaled(kBudget) * 0.4;
  options.pair_mask = f.mask;
  double gap = 0.0;
  for (auto _ : state) {
    const auto r = finder.find_pop_gap(f.pop, f.pop_seeds, options);
    gap = r.normalized_gap;
    auto out = bench::csv("ablation");
    out.row("ablation", "pop.kkt", "lower", gap, "");
  }
  state.counters["found_norm_gap"] = gap;
}

void Ablation_PrimalDualBound_POP(benchmark::State& state) {
  Fixture f;
  core::GapBounder bounder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget) * 2;
  options.pair_mask = f.mask;
  double bound = 0.0, secs = 0.0;
  for (auto _ : state) {
    const auto r = bounder.bound_pop_gap(f.pop, f.pop_seeds, options);
    bound = r.normalized_upper_bound;
    secs = r.seconds;
    auto out = bench::csv("ablation");
    out.row("ablation", "pop.primal_dual", "upper", bound, secs);
  }
  state.counters["upper_norm_bound"] = bound;
  state.counters["bound_secs"] = secs;
}

void Ablation_NoSeed_DP(benchmark::State& state) {
  Fixture f;
  core::AdversarialGapFinder finder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.seed_search_seconds = 0.0;  // ablated
  options.pair_mask = f.mask;
  double gap = 0.0;
  for (auto _ : state) {
    const auto r = finder.find_dp_gap(f.dp, options);
    gap = r.normalized_gap;
    auto out = bench::csv("ablation");
    out.row("ablation", "dp.kkt_noseed", "lower", gap, "");
  }
  state.counters["found_norm_gap"] = gap;
}

void Ablation_NoPrimalHeuristic_DP(benchmark::State& state) {
  Fixture f;
  core::AdversarialGapFinder finder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.seed_search_seconds = 0.0;
  options.use_primal_heuristic = false;  // ablated: pure branch & bound
  options.pair_mask = f.mask;
  double gap = 0.0;
  for (auto _ : state) {
    const auto r = finder.find_dp_gap(f.dp, options);
    gap = r.normalized_gap;
    auto out = bench::csv("ablation");
    out.row("ablation", "dp.kkt_bare", "lower", gap, "");
  }
  state.counters["found_norm_gap"] = gap;
}

BENCHMARK(Ablation_KktSearch_DP)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Ablation_PrimalDualBound_DP)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Ablation_KktSearch_POP)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Ablation_PrimalDualBound_POP)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Ablation_NoSeed_DP)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Ablation_NoPrimalHeuristic_DP)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
