// The paper's figures that are not a plain sweep grid: Figs. 3, 4b, 5a,
// 5b and 6, and the §5 rewrite ablation.
//
//   figures [--scale S] [fig3|fig4b|fig5a|fig5b|fig6|ablation ...]
//
// No name runs them all. Each figure appends `figure,series,x,y,extra`
// rows to bench_results/<figure>.csv and prints one summary line per
// series. --scale multiplies every wall-clock budget (0.1 for a quick
// pass). Fig. 4a and the bin-packing figure are spec files next to this
// program (figures/*.spec), run by `metaopt sweep --spec`.
//
// Finds and bounds go through heur::make_instance.
// core::AdversarialGapFinder is called directly only for Fig. 6's model
// sizes (*_problem_sizes) and for the ablation's dp.kkt_bare row, a find
// without the primal heuristic, which no instance switches off.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adversarial.h"
#include "domains/te_instances.h"
#include "net/paths.h"
#include "net/topologies.h"
#include "runner/sweep_runner.h"
#include "search/search.h"
#include "te/demand.h"
#include "te/max_flow.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace metaopt;

double g_scale = 1.0;

/// `seconds` of wall budget at the chosen --scale.
double scaled(double seconds) { return seconds * g_scale; }

/// bench_results/<figure>.csv, its directory created.
std::string csv_path(const std::string& figure) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + figure + ".csv";
}

/// One figure's CSV sink. Prints each series' last few points when the
/// figure is done.
class Figure {
 public:
  explicit Figure(std::string name)
      : name_(std::move(name)),
        csv_(csv_path(name_), "figure,series,x,y,extra") {}
  Figure(const Figure&) = delete;
  Figure& operator=(const Figure&) = delete;

  ~Figure() {
    constexpr std::size_t kShown = 6;
    for (const auto& [series, points] : series_) {
      std::string line;
      if (points.size() > kShown) {
        line = " (" + std::to_string(points.size()) + " points) ...";
      }
      for (std::size_t i = points.size() - std::min(points.size(), kShown);
           i < points.size(); ++i) {
        line += " " + points[i];
      }
      std::printf("%-8s %-18s%s\n", name_.c_str(), series.c_str(),
                  line.c_str());
    }
  }

  template <typename X, typename E = std::string>
  void row(const std::string& series, const X& x, double y,
           const E& extra = E()) {
    csv_.row(name_, series, x, y, extra);
    std::ostringstream point;
    point.precision(4);
    point << x << '=' << y;
    auto it = series_.begin();
    while (it != series_.end() && it->first != series) ++it;
    if (it == series_.end()) it = series_.insert(it, {series, {}});
    it->second.push_back(point.str());
  }

 private:
  std::string name_;
  util::CsvWriter csv_;
  std::vector<std::pair<std::string, std::vector<std::string>>> series_;
};

/// A B4 instance with 2 paths per pair, DP threshold 50 (5% of link
/// capacity) and 2 POP partitions.
heur::InstanceConfig b4(const std::string& heuristic) {
  heur::InstanceConfig config;
  config.heuristic = heuristic;
  config.topology = "b4";
  config.threshold = 50.0;
  config.partitions = 2;
  return config;
}

/// A find budget with `seed_share` of it spent on black-box seeding.
heur::FindOptions budget(double seconds, double seed_share) {
  heur::FindOptions options;
  options.budget_seconds = scaled(seconds);
  options.seed_search_seconds = scaled(seconds) * seed_share;
  return options;
}

// Fig. 3: normalized gap vs search time on B4, white-box against the
// black-box searchers. Paper shape: white-box finds 20-45% gaps and
// reaches them faster; black-box plateaus lower, much lower for DP.
void fig3() {
  Figure fig("fig3");
  using Searcher = search::SearchResult (*)(const heur::GapOracle&,
                                            const search::SearchOptions&);
  const std::pair<const char*, Searcher> searchers[] = {
      {"hill", search::hill_climb},
      {"anneal", search::simulated_annealing},
      {"random", search::random_search}};
  for (const std::string heuristic : {"dp", "pop"}) {
    heur::InstanceConfig config = b4(heuristic);
    config.pop_seeds = {1, 2};
    const auto instance = heur::make_instance(config);
    const double cap = instance->gap_normalizer();
    const auto emit = [&](const std::string& method, const auto& trace) {
      for (const auto& [sec, gap] : trace) {
        fig.row(heuristic + "." + method, sec, gap / cap);
      }
    };
    emit("whitebox", instance->find_gap(budget(60.0, 0.4)).trace);
    search::SearchOptions options;
    options.time_limit_seconds = scaled(60.0);
    options.demand_ub = instance->leader_ub();
    for (const auto& [method, run] : searchers) {
      emit(method, run(*instance->make_oracle(), options).trace);
    }
  }
}

// Fig. 4b: DP gap on "circle" topologies, 10 nodes each linked to its k
// nearest neighbours per side, at x = average shortest-path length.
// Paper shape: the gap grows with the path length.
void fig4b() {
  Figure fig("fig4b");
  for (int neighbors = 1; neighbors <= 4; ++neighbors) {
    heur::InstanceConfig config = b4("dp");
    config.topology = "circulant:10:" + std::to_string(neighbors);
    const double gap = heur::make_instance(config)
                           ->find_gap(budget(20.0, 0.5))
                           .normalized_gap;
    fig.row("circle10",
            net::average_shortest_path_length(
                domains::load_topology(config.topology)),
            gap, neighbors);
  }
}

// Fig. 5a: a POP input found against one partition instantiation is bad
// for that one but not for 10 held-out ones; one found against the mean
// of 5 stays bad (§3.2).
void fig5a() {
  Figure fig("fig5a");
  for (const int train : {1, 5}) {
    heur::InstanceConfig config = b4("pop");
    config.support = 40;
    for (int seed = 1; seed <= train; ++seed) config.pop_seeds.push_back(seed);
    const heur::GapFindResult r =
        heur::make_instance(config)->find_gap(budget(45.0, 0.6));
    config.pop_seeds.clear();
    for (int seed = 101; seed <= 110; ++seed) config.pop_seeds.push_back(seed);
    const auto heldout = heur::make_instance(config);
    const std::string series = "train_insts=" + std::to_string(train);
    fig.row(series, "train", r.normalized_gap);
    fig.row(series, "heldout10",
            heldout->make_oracle()->evaluate(r.volumes).gap() /
                heldout->gap_normalizer());
  }
}

// Fig. 5b: POP gap vs partitions (at 2 paths) and vs paths per pair (at
// 2 partitions). Paper shape: it grows with partitions and shrinks with
// paths. Not a spec file: a sweep's x for POP is always the partition
// count, so the paths series needs its own x.
void fig5b() {
  Figure fig("fig5b");
  runner::SweepSpec spec;
  spec.heuristics = {runner::Heuristic::Pop};
  spec.pairs = 40;
  spec.budget_seconds = scaled(30.0);
  spec.deterministic = false;
  for (const bool by_partitions : {true, false}) {
    spec.partitions = by_partitions ? std::vector{2, 4, 8} : std::vector{2};
    spec.paths_per_pair = by_partitions ? std::vector{2} : std::vector{1, 2, 4};
    const runner::SweepReport report =
        runner::SweepRunner(runner::SweepOptions()).run(spec);
    for (const runner::JobResult& job : report.jobs) {
      fig.row(by_partitions ? "partitions" : "paths",
              by_partitions ? job.spec.num_partitions
                            : job.spec.paths_per_pair,
              job.result.normalized_gap);
    }
  }
}

// Fig. 6: model size and single-thread latency of the metaopt vs the
// plain heuristic and OPT on B4. Paper shape: the metaopt is a constant
// factor larger but disproportionately slower.
void fig6() {
  Figure fig("fig6");
  const net::Topology topo = net::topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  const core::AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  te::PopConfig pop;
  pop.num_partitions = 2;
  const std::vector<std::uint64_t> seeds{1, 2, 3};
  const auto dp_sizes = finder.dp_problem_sizes(dp, {});
  const auto pop_sizes = finder.pop_problem_sizes(pop, seeds, {});
  const auto find = [&](const std::string& heuristic) {
    heur::InstanceConfig config = b4(heuristic);
    config.pop_seeds = seeds;
    return heur::make_instance(config)->find_gap(budget(30.0, 5.0 / 30.0));
  };

  const auto emit = [&](const std::string& series, const lp::ModelStats& s,
                        double latency_seconds) {
    fig.row(series, "vars", s.num_vars);
    fig.row(series, "linear_cons", s.num_constraints);
    fig.row(series, "sos_cons", s.num_complementarities);
    fig.row(series, "latency_s", latency_seconds);
  };
  // Direct solves: mean latency over five gravity-model demands.
  const auto direct = [&](const auto& solve) {
    const util::Stopwatch watch;
    constexpr int kReps = 5;
    for (int i = 0; i < kReps; ++i) {
      te::DemandGenerator gen(topo, util::Rng(100 + i));
      solve(te::volumes_of(gen.gravity(100.0)));
    }
    return watch.seconds() / kReps;
  };
  // The metaopt's latency is the time of its last incumbent improvement
  // (the paper stops on stalled progress, §3.3).
  const auto last_incumbent = [](const heur::GapFindResult& r) {
    return r.trace.empty() ? r.seconds : r.trace.back().first;
  };
  emit("opt", dp_sizes.opt, direct([&](const std::vector<double>& v) {
         te::solve_max_flow(topo, paths, v);
       }));
  emit("dp", dp_sizes.heuristic, direct([&](const std::vector<double>& v) {
         te::solve_demand_pinning(topo, paths, v, dp);
       }));
  emit("dp+opt(metaopt)", dp_sizes.metaopt,
       last_incumbent(find("dp")));
  emit("pop", pop_sizes.heuristic, direct([&](const std::vector<double>& v) {
         te::solve_pop(topo, paths, v, pop);
       }));
  emit("pop+opt(metaopt)", pop_sizes.metaopt,
       last_incumbent(find("pop")));
}

// Ablation (§5): the KKT search's found gap (a lower bound) against the
// primal-dual rewrite's certified upper bound, bracketing the worst case
// on 30 B4 pairs, plus the KKT search without its seed and without its
// primal heuristic.
void ablation() {
  Figure fig("ablation");
  const auto instance = [](const std::string& heuristic) {
    heur::InstanceConfig config = b4(heuristic);
    config.support = 30;
    config.pop_seeds = {1, 2};
    return heur::make_instance(config);
  };
  const auto kkt = [&](const std::string& heuristic, double seed_share) {
    return instance(heuristic)
        ->find_gap(budget(30.0, seed_share))
        .normalized_gap;
  };
  const auto primal_dual = [&](const std::string& heuristic,
                               double seconds) {
    const heur::GapBoundResult bound =
        instance(heuristic)->bound_gap(budget(seconds, 0.0));
    fig.row(heuristic + ".primal_dual", "upper",
            bound.normalized_upper_bound, bound.seconds);
  };

  fig.row("dp.kkt", "lower", kkt("dp", 0.3));
  primal_dual("dp", 30.0);
  fig.row("pop.kkt", "lower", kkt("pop", 0.4));
  primal_dual("pop", 60.0);
  fig.row("dp.kkt_noseed", "lower", kkt("dp", 0.0));

  // No instance switches the primal heuristic off: the finder directly.
  const net::Topology topo = net::topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  te::DpConfig dp;
  dp.threshold = 50.0;
  core::AdversarialOptions options;
  options.pair_mask = domains::make_support_mask(paths.num_pairs(), 30);
  options.mip.time_limit_seconds = scaled(30.0);
  options.seed_search_seconds = 0.0;
  options.use_primal_heuristic = false;
  fig.row("dp.kkt_bare", "lower",
          core::AdversarialGapFinder(topo, paths)
              .find_dp_gap(dp, options)
              .normalized_gap);
}

}  // namespace

int main(int argc, char** argv) {
  const std::pair<std::string, void (*)()> figures[] = {
      {"fig3", fig3}, {"fig4b", fig4b}, {"fig5a", fig5a},
      {"fig5b", fig5b}, {"fig6", fig6}, {"ablation", ablation}};
  std::vector<std::string> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::optional<double> scale =
        arg == "--scale" && i + 1 < argc ? util::parse_double(argv[++i])
                                         : std::nullopt;
    if (scale && *scale > 0.0) {
      g_scale = *scale;
    } else if (std::ranges::any_of(figures, [&](const auto& f) {
                 return f.first == arg;
               })) {
      chosen.push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: figures [--scale S] "
                   "[fig3|fig4b|fig5a|fig5b|fig6|ablation ...]\n");
      return 2;
    }
  }
  for (const auto& [name, run] : figures) {
    if (chosen.empty() || std::ranges::find(chosen, name) != chosen.end()) {
      run();
    }
  }
  return 0;
}
