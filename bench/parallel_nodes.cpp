// Parallel B&B bench: node throughput of the worker-pool tree search at
// 1 vs N threads on proven-optimal adversarial instances.
//
// Workload: the paper's Fig. 1 DP worst-case search at several pinning
// thresholds plus a ring topology, each solved to proven optimality
// twice — once with MipOptions::threads == 1, once with the bench's
// thread count (min(hardware_concurrency, 4), at least 2) — with
// black-box seeding disabled, so the trees are pure B&B work. The
// parallel search is thread-count-invariant by construction, so the
// bench aborts if the serial and parallel runs disagree on any
// certified gap: a mismatch is a solver bug, not a benchmark result.
// The headline counter is `speedup` (parallel nodes/sec over serial
// nodes/sec); per-instance rates land in BENCH_parallel_nodes.json as
// summary vectors. On machines with >= 4 hardware threads the bench
// additionally requires wall-clock speedup > 1.0; on smaller hosts
// (CI containers are often single-core) the numbers are reported but
// not asserted, since oversubscribed workers cannot beat serial.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/adversarial.h"
#include "te/path_set.h"
#include "util/stopwatch.h"

namespace {

using namespace metaopt;

struct Instance {
  std::string name;
  net::Topology topo;
  double threshold = 50.0;
  double demand_ub = 200.0;
  int pairs = 0;  ///< adversarial support size (0 = all pairs, §3.3)
};

core::AdversarialResult solve_instance(const Instance& inst, int threads) {
  const te::PathSet paths(inst.topo, te::all_pairs(inst.topo), 2);
  core::AdversarialGapFinder finder(inst.topo, paths);
  te::DpConfig dp;
  dp.threshold = inst.threshold;
  core::AdversarialOptions options;
  options.demand_ub = inst.demand_ub;
  if (inst.pairs > 0) {
    options.pair_mask = bench::spread_mask(
        static_cast<int>(te::all_pairs(inst.topo).size()), inst.pairs);
  }
  options.seed_search_seconds = 0.0;  // pure B&B: no black-box seeding
  options.mip.time_limit_seconds = bench::scaled(120.0);
  options.mip.certify = true;
  options.mip.threads = threads;
  return finder.find_dp_gap(dp, options);
}

void ParallelNodes(benchmark::State& state) {
  std::vector<Instance> instances;
  for (const double threshold : {25.0, 50.0, 100.0}) {
    instances.push_back({"fig1/t" + std::to_string(static_cast<int>(threshold)),
                         net::topologies::fig1(), threshold, 200.0});
  }
  // demand_ub 0 = "max link capacity" (the tight 200 box zeroes the
  // gap); 6 adversarial pairs keep the tree provably closable — the
  // unrestricted ring times out even at full budget in Debug builds.
  instances.push_back({"ring6/t50", net::topologies::circulant(6, 1), 50.0,
                       0.0, 6});

  const unsigned hw = std::thread::hardware_concurrency();
  const int par_threads =
      std::max(2, std::min(static_cast<int>(hw == 0 ? 1 : hw), 4));
  const bool assert_speedup = hw >= 4;

  const obs::MetricsSnapshot obs_baseline = bench::obs_begin();
  util::Stopwatch bench_watch;
  std::vector<double> serial_rates, parallel_rates, serial_nodes,
      parallel_nodes;
  double serial_total_nodes = 0.0, serial_total_seconds = 0.0;
  double parallel_total_nodes = 0.0, parallel_total_seconds = 0.0;
  for (auto _ : state) {
    auto out = bench::csv("parallel_nodes");
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& inst = instances[i];
      const core::AdversarialResult serial = solve_instance(inst, 1);
      const core::AdversarialResult parallel =
          solve_instance(inst, par_threads);
      // Thread-count invariance is the headline contract: identical
      // certified answers or the comparison is meaningless.
      if (serial.status != lp::SolveStatus::Optimal ||
          parallel.status != lp::SolveStatus::Optimal ||
          serial.gap != parallel.gap || !serial.certified ||
          !parallel.certified) {
        std::fprintf(stderr,
                     "FATAL: %s serial/parallel disagree (status %d vs %d, "
                     "gap %.17g vs %.17g, certified %d/%d)\n",
                     inst.name.c_str(), static_cast<int>(serial.status),
                     static_cast<int>(parallel.status), serial.gap,
                     parallel.gap, static_cast<int>(serial.certified),
                     static_cast<int>(parallel.certified));
        std::abort();
      }
      const double serial_rate = serial.nodes / std::max(serial.seconds, 1e-9);
      const double parallel_rate =
          parallel.nodes / std::max(parallel.seconds, 1e-9);
      serial_rates.push_back(serial_rate);
      parallel_rates.push_back(parallel_rate);
      serial_nodes.push_back(static_cast<double>(serial.nodes));
      parallel_nodes.push_back(static_cast<double>(parallel.nodes));
      serial_total_nodes += serial.nodes;
      serial_total_seconds += serial.seconds;
      parallel_total_nodes += parallel.nodes;
      parallel_total_seconds += parallel.seconds;
      out.row("parallel_nodes", "serial", static_cast<double>(i), serial_rate,
              inst.name);
      out.row("parallel_nodes", "parallel", static_cast<double>(i),
              parallel_rate, inst.name);
    }
  }
  const double serial_throughput =
      serial_total_nodes / std::max(serial_total_seconds, 1e-9);
  const double parallel_throughput =
      parallel_total_nodes / std::max(parallel_total_seconds, 1e-9);
  const double speedup =
      parallel_throughput / std::max(serial_throughput, 1e-9);
  state.counters["serial_nodes_per_sec"] = serial_throughput;
  state.counters["parallel_nodes_per_sec"] = parallel_throughput;
  state.counters["mip_threads"] = static_cast<double>(par_threads);
  state.counters["speedup"] = speedup;
  if (assert_speedup && speedup <= 1.0) {
    std::fprintf(stderr,
                 "FATAL: parallel B&B slower than serial on a %u-way host "
                 "(speedup %.3f with %d threads)\n",
                 hw, speedup, par_threads);
    std::abort();
  }
  bench::write_bench_report(
      "parallel_nodes", obs_baseline, bench_watch.seconds(),
      {{"scale", std::to_string(bench::budget_scale())},
       {"mip_threads", std::to_string(par_threads)},
       {"hardware_concurrency", std::to_string(hw)},
       {"instances", std::to_string(instances.size())},
       {"speedup", std::to_string(speedup)}},
      {{"serial_nodes_per_sec", serial_rates},
       {"parallel_nodes_per_sec", parallel_rates},
       {"serial_nodes", serial_nodes},
       {"parallel_nodes", parallel_nodes}});
}

BENCHMARK(ParallelNodes)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
