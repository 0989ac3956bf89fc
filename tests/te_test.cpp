// Tests for the TE formulations: OptMaxFlow, Demand Pinning, POP —
// procedural solvers, convex encodings, and their equivalence — plus the
// direct-solve LP (MaxFlowLp) against a tableau reference and the gap
// oracles' purity and thread-safety contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "kkt/kkt_rewriter.h"
#include "kkt/materialize.h"
#include "mip/branch_and_bound.h"
#include "net/topologies.h"
#include "obs/metrics.h"
#include "te/demand.h"
#include "te/demand_pinning.h"
#include "te/gap.h"
#include "te/max_flow.h"
#include "te/path_set.h"
#include "te/pop.h"
#include "util/rng.h"
#include "util/tolerances.h"

namespace metaopt::te {
namespace {

using net::Topology;
namespace topologies = net::topologies;

PathSet make_paths(const Topology& topo, int k) {
  return PathSet(topo, all_pairs(topo), k);
}

// ---------------------------------------------------------------------
// Demands & path sets
// ---------------------------------------------------------------------

TEST(Demand, AllPairsCountAndOrder) {
  const Topology topo = topologies::fig1();
  const auto pairs = all_pairs(topo);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<net::NodeId, net::NodeId>{0, 1}));
  EXPECT_EQ(pairs[5], (std::pair<net::NodeId, net::NodeId>{2, 1}));
}

TEST(Demand, GeneratorsProduceSaneVolumes) {
  const Topology topo = topologies::abilene();
  DemandGenerator gen(topo, util::Rng(3));
  const auto uni = gen.uniform(10.0, 20.0);
  for (const Demand& d : uni) {
    EXPECT_GE(d.volume, 10.0);
    EXPECT_LE(d.volume, 20.0);
  }
  DemandGenerator gen2(topo, util::Rng(4));
  const auto grav = gen2.gravity(100.0);
  const double mean =
      std::accumulate(grav.begin(), grav.end(), 0.0,
                      [](double a, const Demand& d) { return a + d.volume; }) /
      static_cast<double>(grav.size());
  EXPECT_NEAR(mean, 100.0, 1e-6);
}

TEST(Demand, HoseRespectsCap) {
  const Topology topo = topologies::abilene();
  DemandGenerator gen(topo, util::Rng(5));
  const auto demands = gen.hose(50.0, 150.0, 400.0);
  std::vector<double> egress(topo.num_nodes(), 0.0);
  for (const Demand& d : demands) egress[d.src] += d.volume;
  // Rescaling is per-demand (not iterative), so allow small slack.
  for (double e : egress) EXPECT_LE(e, 400.0 * 1.05);
}

TEST(PathSetTest, AlignsWithPairsAndTracksHops) {
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  EXPECT_EQ(paths.num_pairs(), 12 * 11);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    ASSERT_FALSE(paths.paths(k).empty());
    EXPECT_LE(paths.paths(k).size(), 2u);
    const auto [s, t] = paths.pair(k);
    EXPECT_EQ(topo.edge(paths.shortest(k).edges.front()).src, s);
    EXPECT_EQ(topo.edge(paths.shortest(k).edges.back()).dst, t);
  }
  EXPECT_GE(paths.max_hops(), 4);
}

// ---------------------------------------------------------------------
// OptMaxFlow
// ---------------------------------------------------------------------

TEST(MaxFlow, Fig1CarriesEverything) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  // Demands of Fig. 1: 1->2: 100, 2->3: 110, 1->3: 50 (pairs in
  // src-major order: (0,1)=100, (0,2)=50, (1,0), (1,2)=110, ...).
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 1) volumes[k] = 100.0;
    if (s == 0 && t == 2) volumes[k] = 50.0;
    if (s == 1 && t == 2) volumes[k] = 110.0;
  }
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(opt.total_flow, 260.0, 1e-6);  // OPT of Fig. 1
}

TEST(MaxFlow, RespectsCapacity) {
  const Topology topo = topologies::line(3);  // 0-1-2, caps 1000
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 2) volumes[k] = 5000.0;  // exceeds capacity
  }
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(opt.total_flow, 1000.0, 1e-6);
}

TEST(MaxFlow, CapacityScaleHalvesFlow) {
  const Topology topo = topologies::line(3);
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 2) volumes[k] = 5000.0;
  }
  MaxFlowOptions options;
  options.capacity_scale = 0.5;
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes, options);
  ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(opt.total_flow, 500.0, 1e-6);
}

TEST(MaxFlow, IncludeMaskDropsDemands) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes(paths.num_pairs(), 40.0);
  std::vector<bool> include(paths.num_pairs(), false);
  const MaxFlowResult none = solve_max_flow(
      topo, paths, volumes,
      MaxFlowOptions{.capacity_scale = 1.0, .include = &include});
  ASSERT_EQ(none.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(none.total_flow, 0.0, 1e-9);
  for (const auto& flows : none.path_flow) EXPECT_TRUE(flows.empty());
}

TEST(MaxFlow, KktEncodingMatchesDirect) {
  // Small ring so raw branch-and-bound (no primal heuristic) can close
  // all complementarity pairs; the Abilene/B4-scale version lives in
  // core_test with the KKT-point-assembly heuristic.
  const Topology topo = topologies::circulant(6, 1);
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(11));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 120.0));

  const MaxFlowResult direct = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(direct.status, lp::SolveStatus::Optimal);

  lp::Model outer;
  std::vector<lp::LinExpr> demand;
  for (double v : volumes) demand.emplace_back(v);
  FlowEncoding enc = build_max_flow(outer, topo, paths, demand, "mf.");
  const kkt::KktArtifacts art = kkt::emit_kkt(outer, enc.inner, "mf.");
  outer.set_objective(lp::ObjSense::Minimize, lp::LinExpr(0.0));
  mip::MipOptions opt;
  opt.time_limit_seconds = 120.0;
  const auto sol = mip::BranchAndBound(opt).solve(outer);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(outer.eval(art.objective_expr, sol.values), direct.total_flow,
              1e-4);
}

// ---------------------------------------------------------------------
// Demand Pinning
// ---------------------------------------------------------------------

std::vector<double> fig1_volumes(const PathSet& paths) {
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 1) volumes[k] = 100.0;
    if (s == 0 && t == 2) volumes[k] = 50.0;
    if (s == 1 && t == 2) volumes[k] = 110.0;
  }
  return volumes;
}

TEST(DemandPinning, ReproducesFig1Gap) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  const std::vector<double> volumes = fig1_volumes(paths);
  DpConfig config;
  config.threshold = 50.0;
  const DpResult dp = solve_demand_pinning(topo, paths, volumes, config);
  ASSERT_EQ(dp.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(dp.feasible);
  EXPECT_NEAR(dp.total_flow, 160.0, 1e-6);  // the paper's DP value
  EXPECT_NEAR(dp.pinned_flow, 50.0, 1e-9);
  EXPECT_EQ(dp.num_pinned, 1);

  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  EXPECT_NEAR(opt.total_flow - dp.total_flow, 100.0, 1e-6);  // gap = 100
}

TEST(DemandPinning, NoPinsAboveThreshold) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes = fig1_volumes(paths);
  DpConfig config;
  config.threshold = 10.0;  // demand 50 no longer pinned
  const DpResult dp = solve_demand_pinning(topo, paths, volumes, config);
  ASSERT_TRUE(dp.feasible);
  // Pairs without any path are skipped entirely; all three real demands
  // sit above the threshold, so nothing is pinned.
  EXPECT_EQ(dp.num_pinned, 0);
  EXPECT_NEAR(dp.total_flow, 260.0, 1e-6);  // now DP matches OPT
}

TEST(DemandPinning, DetectsInfeasibleOversubscription) {
  // Two small demands pinned onto the same 0-1 link of a line exceed it.
  Topology topo(3, "tiny");
  topo.add_edge(0, 1, 50.0);
  topo.add_edge(1, 2, 50.0);
  const PathSet paths(topo, {{0, 1}, {0, 2}}, 1);
  DpConfig config;
  config.threshold = 40.0;
  const DpResult dp = solve_demand_pinning(topo, paths, {30.0, 30.0}, config);
  EXPECT_FALSE(dp.feasible);
  EXPECT_EQ(dp.status, lp::SolveStatus::Infeasible);
}

/// Brute-force DP encoding check: materialize the DP inner problem with
/// the indicator binaries and concrete demands, solve with B&B, compare
/// against the procedural heuristic.
void check_dp_encoding_matches(const Topology& topo, const PathSet& paths,
                               const std::vector<double>& volumes,
                               const DpConfig& config) {
  const DpResult direct = solve_demand_pinning(topo, paths, volumes, config);

  lp::Model model;
  std::vector<lp::Var> demand_vars;
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    demand_vars.push_back(
        model.add_var("d" + std::to_string(k), volumes[k], volumes[k]));
  }
  DpEncoding enc =
      build_demand_pinning(model, topo, paths, demand_vars, config);
  kkt::materialize_constraints(model, enc.inner);
  model.set_objective(lp::ObjSense::Maximize, enc.total_flow);
  mip::MipOptions opt;
  opt.time_limit_seconds = 60.0;
  const auto sol = mip::BranchAndBound(opt).solve(model);
  if (!direct.feasible) {
    EXPECT_EQ(sol.status, lp::SolveStatus::Infeasible);
    return;
  }
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, direct.total_flow, 1e-4);
}

TEST(DemandPinning, EncodingMatchesProceduralOnFig1) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  DpConfig config;
  config.threshold = 50.0;
  config.demand_ub = 200.0;
  check_dp_encoding_matches(topo, paths, fig1_volumes(paths), config);
}

class DpEncodingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DpEncodingPropertyTest, EncodingMatchesProceduralRandom) {
  const Topology topo = topologies::circulant(6, 1);
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(100 + GetParam()));
  std::vector<double> volumes = volumes_of(gen.uniform(0.0, 150.0));
  DpConfig config;
  config.threshold = 60.0;
  config.demand_ub = 150.0;
  // Keep volumes clear of the indicator epsilon band.
  for (double& v : volumes) {
    if (v > config.threshold && v < config.threshold + 2 * config.epsilon) {
      v = config.threshold;
    }
  }
  check_dp_encoding_matches(topo, paths, volumes, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpEncodingPropertyTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// POP
// ---------------------------------------------------------------------

TEST(Pop, RandomPartitionIsBalancedAndDeterministic) {
  util::Rng rng(9);
  const auto a = random_partition(10, 2, rng);
  std::vector<int> counts(2, 0);
  for (int p : a) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 2);
    ++counts[p];
  }
  EXPECT_EQ(counts[0], 5);
  EXPECT_EQ(counts[1], 5);
  util::Rng rng2(9);
  EXPECT_EQ(random_partition(10, 2, rng2), a);
}

TEST(Pop, OnePartitionEqualsOpt) {
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(21));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 100.0));
  PopConfig config;
  config.num_partitions = 1;
  const PopResult pop = solve_pop(topo, paths, volumes, config);
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(pop.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(pop.total_flow, opt.total_flow, 1e-5);
}

TEST(Pop, NeverBeatsOpt) {
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  for (int seed = 1; seed <= 3; ++seed) {
    DemandGenerator gen(topo, util::Rng(30 + seed));
    const std::vector<double> volumes = volumes_of(gen.gravity(80.0));
    const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
    PopConfig config;
    config.num_partitions = 4;
    config.seed = seed;
    const PopResult pop = solve_pop(topo, paths, volumes, config);
    ASSERT_EQ(pop.status, lp::SolveStatus::Optimal);
    EXPECT_LE(pop.total_flow, opt.total_flow + 1e-6);
  }
}

TEST(Pop, EncodingMatchesProcedural) {
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(55));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 90.0));
  PopConfig config;
  config.num_partitions = 2;
  config.seed = 7;
  const PopResult direct = solve_pop(topo, paths, volumes, config);
  ASSERT_EQ(direct.status, lp::SolveStatus::Optimal);

  lp::Model model;
  std::vector<lp::LinExpr> demand;
  for (double v : volumes) demand.emplace_back(v);
  PopEncoding enc = build_pop(model, topo, paths, demand, config);
  lp::LinExpr total;
  for (FlowEncoding& part : enc.partitions) {
    kkt::materialize_constraints(model, part.inner);
  }
  model.set_objective(lp::ObjSense::Maximize, enc.total_flow);
  const auto sol = lp::SimplexSolver().solve(model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, direct.total_flow, 1e-5);
}

TEST(Pop, MorePartitionsNeverHelp) {
  // With capacities split c ways, POP's value decreases (weakly) in c
  // for a fixed seed universe on a saturated workload.
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(77));
  const std::vector<double> volumes = volumes_of(gen.uniform(100.0, 300.0));
  double prev = 1e300;
  for (int c : {1, 2, 4}) {
    double mean = 0.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      PopConfig config;
      config.num_partitions = c;
      config.seed = seed;
      mean += solve_pop(topo, paths, volumes, config).total_flow / 4.0;
    }
    EXPECT_LE(mean, prev + 1e-6) << "partitions=" << c;
    prev = mean;
  }
}

// ---------------------------------------------------------------------
// Gap oracles
// ---------------------------------------------------------------------

TEST(GapOracles, DpOracleReproducesFig1) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  DpConfig config;
  config.threshold = 50.0;
  DpGapOracle oracle(topo, paths, config);
  const GapResult gap = oracle.evaluate(fig1_volumes(paths));
  EXPECT_NEAR(gap.opt, 260.0, 1e-6);
  EXPECT_NEAR(gap.heur, 160.0, 1e-6);
  EXPECT_NEAR(gap.gap(), 100.0, 1e-6);
  EXPECT_EQ(oracle.evaluations(), 1);
}

TEST(GapOracles, InfeasibleDpInputYieldsNegativeGap) {
  Topology topo(3, "tiny");
  topo.add_edge(0, 1, 50.0);
  topo.add_edge(1, 2, 50.0);
  const PathSet paths(topo, {{0, 1}, {0, 2}}, 1);
  DpConfig config;
  config.threshold = 40.0;
  DpGapOracle oracle(topo, paths, config);
  const GapResult gap = oracle.evaluate({30.0, 30.0});
  EXPECT_FALSE(gap.heuristic_feasible);
  EXPECT_LT(gap.gap(), 0.0);
}

TEST(GapOracles, PopOracleAveragesInstances) {
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  PopConfig config;
  config.num_partitions = 2;
  PopGapOracle oracle(topo, paths, config, {1, 2, 3});
  DemandGenerator gen(topo, util::Rng(88));
  const std::vector<double> volumes = volumes_of(gen.uniform(50.0, 250.0));
  const GapResult gap = oracle.evaluate(volumes);
  ASSERT_EQ(gap.status, lp::SolveStatus::Optimal);
  const std::vector<double> per = oracle.per_instance_heur(volumes);
  ASSERT_EQ(per.size(), 3u);
  EXPECT_NEAR(gap.heur, (per[0] + per[1] + per[2]) / 3.0, 1e-9);
  EXPECT_GE(gap.gap(), -1e-9);  // POP can't beat OPT
}

// ---------------------------------------------------------------------
// MaxFlowLp: differential test against a tableau reference
// ---------------------------------------------------------------------

/// A seeded demand vector for the DP / POP corpora: a quarter zeros,
/// half at or below twice the DP threshold (so some pairs pin), the rest
/// anywhere up to the largest link capacity.
std::vector<double> corpus_vector(const Topology& topo, const PathSet& paths,
                                  double threshold, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (double& v : volumes) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.25) continue;
    v = u < 0.75 ? rng.uniform(0.0, 2.0 * threshold)
                 : rng.uniform(0.0, topo.max_capacity());
  }
  return volumes;
}

/// The reference solve: build_max_flow's encoding materialized into a
/// fresh model and solved from scratch on the dense tableau.
lp::Solution reference_solve(const Topology& topo, const PathSet& paths,
                             const std::vector<double>& volumes,
                             const MaxFlowOptions& options) {
  lp::Model model;
  std::vector<lp::LinExpr> demand(volumes.begin(), volumes.end());
  const FlowEncoding enc =
      build_max_flow(model, topo, paths, demand, "ref.", options);
  kkt::materialize_constraints(model, enc.inner);
  model.set_objective(lp::ObjSense::Maximize, enc.total_flow);
  lp::SimplexOptions simplex;
  simplex.certify = options.certify;
  return lp::SimplexSolver(simplex).solve(model);
}

void expect_matches(const MaxFlowResult& got, const lp::Solution& ref,
                    const std::string& what) {
  ASSERT_EQ(ref.status, lp::SolveStatus::Optimal) << what;
  ASSERT_EQ(got.status, lp::SolveStatus::Optimal) << what;
  EXPECT_NEAR(got.total_flow, ref.objective,
              tol::kFeasTol * (1.0 + std::abs(ref.objective)))
      << what;
  EXPECT_TRUE(got.certified) << what;
  EXPECT_NE(got.basis, nullptr) << what;
}

class MaxFlowLpDiff : public ::testing::TestWithParam<std::string> {};

TEST_P(MaxFlowLpDiff, MatchesTableauReference) {
  const Topology topo =
      GetParam() == "b4" ? topologies::b4() : topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  const MaxFlowLp lp(topo, paths);
  DpConfig dp;
  dp.certify = true;
  int residual_cases = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<double> volumes =
        corpus_vector(topo, paths, dp.threshold, util::derive_seed(61, seed));
    const std::string tag = GetParam() + " seed " + std::to_string(seed);

    // OPT: a cold solve.
    MaxFlowOptions mf;
    mf.certify = true;
    const MaxFlowResult opt = lp.solve(volumes, mf);
    expect_matches(opt, reference_solve(topo, paths, volumes, mf),
                   tag + " OPT");

    // DP's residual LP, warm from the OPT basis and cold: pin as
    // solve_demand_pinning does, then route the rest on what is left.
    std::vector<double> residual(topo.num_edges());
    for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
      residual[e] = topo.edge(e).capacity;
    }
    std::vector<bool> include(paths.num_pairs(), false);
    double pinned = 0.0;
    for (int k = 0; k < paths.num_pairs(); ++k) {
      if (volumes[k] > dp.threshold) {
        include[k] = true;
        continue;
      }
      pinned += volumes[k];
      for (net::EdgeId e : paths.shortest(k).edges) residual[e] -= volumes[k];
    }
    const bool oversubscribed = std::any_of(
        residual.begin(), residual.end(), [](double r) { return r < -1e-9; });
    const DpResult dp_result =
        solve_demand_pinning(lp, volumes, dp, opt.basis.get());
    EXPECT_EQ(dp_result.feasible, !oversubscribed) << tag;
    if (!oversubscribed) {
      ++residual_cases;
      for (double& r : residual) r = std::max(r, 0.0);
      MaxFlowOptions res = mf;
      res.include = &include;
      res.capacity_override = &residual;
      const lp::Solution ref = reference_solve(topo, paths, volumes, res);
      expect_matches(lp.solve(volumes, res, opt.basis.get()), ref,
                     tag + " DP residual (warm)");
      expect_matches(lp.solve(volumes, res), ref, tag + " DP residual (cold)");
      EXPECT_NEAR(dp_result.total_flow, pinned + ref.objective,
                  tol::kFeasTol * (1.0 + std::abs(dp_result.total_flow)))
          << tag;
      EXPECT_TRUE(dp_result.certified) << tag;
    }

    // POP partitions, warm from the OPT basis.
    for (const int c : {2, 3}) {
      util::Rng rng(seed);
      const std::vector<int> assignment =
          random_partition(paths.num_pairs(), c, rng);
      for (int part = 0; part < c; ++part) {
        std::vector<bool> in_part(paths.num_pairs(), false);
        for (int k = 0; k < paths.num_pairs(); ++k) {
          in_part[k] = assignment[k] == part;
        }
        MaxFlowOptions po = mf;
        po.include = &in_part;
        po.capacity_scale = 1.0 / c;
        expect_matches(lp.solve(volumes, po, opt.basis.get()),
                       reference_solve(topo, paths, volumes, po),
                       tag + " POP c=" + std::to_string(c) + " part " +
                           std::to_string(part));
      }
    }
  }
  EXPECT_GT(residual_cases, 0) << "corpus never reached a DP residual LP";
}

INSTANTIATE_TEST_SUITE_P(Topologies, MaxFlowLpDiff,
                         ::testing::Values("abilene", "b4"));

// ---------------------------------------------------------------------
// Gap oracles: evaluate() is a pure function of its input
// ---------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const GapResult& a, const GapResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_TRUE(same_bits(a.opt, b.opt)) << what << ": opt " << a.opt << " vs "
                                       << b.opt;
  EXPECT_TRUE(same_bits(a.heur, b.heur))
      << what << ": heur " << a.heur << " vs " << b.heur;
  EXPECT_EQ(a.heuristic_feasible, b.heuristic_feasible) << what;
  EXPECT_EQ(a.certified, b.certified) << what;
}

std::vector<std::vector<double>> b4_corpus(const Topology& topo,
                                           const PathSet& paths,
                                           double threshold) {
  std::vector<std::vector<double>> corpus;
  for (std::uint64_t i = 0; i < 64; ++i) {
    corpus.push_back(
        corpus_vector(topo, paths, threshold, util::derive_seed(4, i)));
  }
  return corpus;
}

/// Evaluates `corpus` on `oracle` serially, in reverse order and from 4
/// threads sharing it, and on a fresh oracle; every result must be
/// bit-identical to the serial one.
void expect_pure(const GapOracle& oracle,
                 const std::function<std::unique_ptr<GapOracle>()>& fresh,
                 const std::vector<std::vector<double>>& corpus) {
  const std::size_t n = corpus.size();
  std::vector<GapResult> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = oracle.evaluate(corpus[i]);

  std::vector<GapResult> reversed(n);
  for (std::size_t i = n; i-- > 0;) reversed[i] = oracle.evaluate(corpus[i]);

  std::vector<GapResult> threaded(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        threaded[i] = oracle.evaluate(corpus[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const std::unique_ptr<GapOracle> other = fresh();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string what = "vector " + std::to_string(i);
    ASSERT_EQ(serial[i].status, lp::SolveStatus::Optimal) << what;
    expect_identical(serial[i], reversed[i], what + " (reverse order)");
    expect_identical(serial[i], threaded[i], what + " (4 threads)");
    expect_identical(serial[i], other->evaluate(corpus[i]),
                     what + " (fresh oracle)");
  }
}

TEST(GapOracles, DpEvaluateIsPureAndThreadSafe) {
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  const DpConfig config;
  const auto corpus = b4_corpus(topo, paths, config.threshold);
  const DpGapOracle oracle(topo, paths, config);
  expect_pure(
      oracle,
      [&] { return std::make_unique<DpGapOracle>(topo, paths, config); },
      corpus);
  int feasible = 0;
  for (const auto& v : corpus) {
    feasible += oracle.evaluate(v).heuristic_feasible ? 1 : 0;
  }
  EXPECT_GT(feasible, 0) << "corpus never reached a DP residual LP";
}

TEST(GapOracles, PopEvaluateIsPureAndThreadSafe) {
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  PopConfig config;
  config.num_partitions = 2;
  const auto corpus = b4_corpus(topo, paths, DpConfig{}.threshold);
  const PopGapOracle oracle(topo, paths, config, {1, 2, 3});
  expect_pure(
      oracle,
      [&] {
        return std::make_unique<PopGapOracle>(
            topo, paths, config, std::vector<std::uint64_t>{1, 2, 3});
      },
      corpus);
}

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

TEST(GapOracles, DpCorpusStaysOnTheRevisedCore) {
  // Every DP evaluation is one cold OPT solve plus, when pinning leaves
  // a feasible residual, one warm residual solve from the OPT basis —
  // none of them reaches the dense tableau.
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  const DpConfig config;
  const auto corpus = b4_corpus(topo, paths, config.threshold);
  const DpGapOracle oracle(topo, paths, config);

  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  int feasible = 0;
  for (const auto& v : corpus) {
    feasible += oracle.evaluate(v).heuristic_feasible ? 1 : 0;
  }
  const obs::MetricsSnapshot after = obs::snapshot();
  obs::set_enabled(false);

  const obs::MetricsSnapshot d = obs::diff(before, after);
  const double n = static_cast<double>(corpus.size());
  EXPECT_EQ(metric(d, "simplex.tableau_fallbacks"), 0.0);
  EXPECT_EQ(metric(d, "simplex.warm_fallbacks"), 0.0);
  EXPECT_EQ(metric(d, "simplex.pivots"), 0.0);  // tableau pivots
  EXPECT_EQ(metric(d, "simplex.cold_revised_solves"), n);
  EXPECT_EQ(metric(d, "simplex.warm_solves"), feasible);
  EXPECT_EQ(metric(d, "simplex.solves"), n + feasible);
}

}  // namespace
}  // namespace metaopt::te
