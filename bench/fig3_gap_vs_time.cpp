// Figure 3: discovered gap (normalized by total edge capacity) vs search
// time on B4, for DP (a) and POP (b), comparing the white-box single-shot
// method against hill climbing, simulated annealing, and random search.
//
// Paper shape to reproduce: the white-box technique finds larger gaps
// (20%-45% of total capacity) and reaches them faster; black-box methods
// plateau lower — much lower for DP, whose adversarial inputs occupy a
// thin slice of the demand box (footnote 2).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/adversarial.h"
#include "search/search.h"
#include "te/gap.h"

namespace {

using namespace metaopt;

constexpr double kBudget = 60.0;  // seconds per method (scaled)

struct Fixture {
  net::Topology topo = net::topologies::b4();
  te::PathSet paths{topo, te::all_pairs(topo), 2};
  te::DpConfig dp;
  te::PopConfig pop;
  std::vector<std::uint64_t> pop_seeds{1, 2};

  Fixture() {
    dp.threshold = 0.05 * 1000.0;  // 5% of link capacity
    pop.num_partitions = 2;
  }
};

void emit_trace(util::CsvWriter& out, const std::string& series,
                const std::vector<std::pair<double, double>>& trace,
                double total_capacity) {
  for (const auto& [sec, gap] : trace) {
    out.row("fig3", series, sec, gap / total_capacity, "");
  }
}

void run_blackbox(benchmark::State& state, const std::string& heuristic,
                  const std::string& method) {
  Fixture f;
  const double cap = f.topo.total_capacity();
  search::SearchOptions options;
  options.time_limit_seconds = bench::scaled(kBudget);
  options.demand_ub = 1000.0;

  double best = 0.0;
  long evals = 0;
  for (auto _ : state) {
    const te::DpGapOracle dp_oracle(f.topo, f.paths, f.dp);
    const te::PopGapOracle pop_oracle(f.topo, f.paths, f.pop, f.pop_seeds);
    const heur::GapOracle& oracle =
        heuristic == "dp" ? static_cast<const heur::GapOracle&>(dp_oracle)
                          : static_cast<const heur::GapOracle&>(pop_oracle);
    search::SearchResult r;
    if (method == "hill") r = search::hill_climb(oracle, options);
    else if (method == "anneal") r = search::simulated_annealing(oracle, options);
    else r = search::random_search(oracle, options);
    best = r.best.gap();
    evals = r.evaluations;
    auto out = bench::csv("fig3");
    emit_trace(out, heuristic + "." + method, r.trace, cap);
  }
  state.counters["norm_gap"] = best / cap;
  state.counters["gap"] = best;
  state.counters["evals"] = static_cast<double>(evals);
}

void run_whitebox(benchmark::State& state, const std::string& heuristic) {
  Fixture f;
  const double cap = f.topo.total_capacity();
  core::AdversarialGapFinder finder(f.topo, f.paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = bench::scaled(kBudget);
  options.seed_search_seconds = bench::scaled(kBudget) * 0.4;

  double best = 0.0;
  long nodes = 0;
  for (auto _ : state) {
    const core::AdversarialResult r =
        heuristic == "dp" ? finder.find_dp_gap(f.dp, options)
                          : finder.find_pop_gap(f.pop, f.pop_seeds, options);
    best = r.gap;
    nodes = r.nodes;
    auto out = bench::csv("fig3");
    emit_trace(out, heuristic + ".whitebox", r.trace, cap);
  }
  state.counters["norm_gap"] = best / cap;
  state.counters["gap"] = best;
  state.counters["nodes"] = static_cast<double>(nodes);
}

void Fig3a_DP_WhiteBox(benchmark::State& state) { run_whitebox(state, "dp"); }
void Fig3a_DP_HillClimb(benchmark::State& state) {
  run_blackbox(state, "dp", "hill");
}
void Fig3a_DP_SimAnneal(benchmark::State& state) {
  run_blackbox(state, "dp", "anneal");
}
void Fig3a_DP_Random(benchmark::State& state) {
  run_blackbox(state, "dp", "random");
}
void Fig3b_POP_WhiteBox(benchmark::State& state) { run_whitebox(state, "pop"); }
void Fig3b_POP_HillClimb(benchmark::State& state) {
  run_blackbox(state, "pop", "hill");
}
void Fig3b_POP_SimAnneal(benchmark::State& state) {
  run_blackbox(state, "pop", "anneal");
}
void Fig3b_POP_Random(benchmark::State& state) {
  run_blackbox(state, "pop", "random");
}

BENCHMARK(Fig3a_DP_WhiteBox)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3a_DP_HillClimb)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3a_DP_SimAnneal)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3a_DP_Random)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3b_POP_WhiteBox)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3b_POP_HillClimb)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3b_POP_SimAnneal)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(Fig3b_POP_Random)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
