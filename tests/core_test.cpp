// Tests for the adversarial gap finder (Eq. 1) and input constraints.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/adversarial.h"
#include "core/input_constraints.h"
#include "core/single_shot.h"
#include "search/search.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "te/demand.h"
#include "te/gap.h"
#include "util/rng.h"

namespace metaopt::core {
namespace {

using net::Topology;
namespace topologies = net::topologies;

// A work budget: the B&B stops after `nodes` nodes and the wall-clock
// seeding pass is off, so the answer does not depend on machine speed.
// The seconds are only a safety cap.
AdversarialOptions work_options(long nodes) {
  AdversarialOptions o;
  o.mip.max_nodes = nodes;
  o.mip.time_limit_seconds = 120.0;
  o.seed_search_seconds = 0.0;
  return o;
}

TEST(FindMipOptions, CarryBudgetThreadsAndCertification) {
  heur::FindOptions find;
  find.budget_seconds = 7.5;
  find.mip_threads = 3;
  mip::MipOptions mip = find_mip_options(find);
  EXPECT_EQ(mip.time_limit_seconds, 7.5);
  EXPECT_EQ(mip.threads, 3);
  // Not asked for: the build's default, on in Debug and off in Release.
  EXPECT_EQ(mip.certify, lp::kCertifyByDefault);
  EXPECT_EQ(mip.lp.certify, lp::kCertifyByDefault);
  find.certify = true;
  mip = find_mip_options(find);
  EXPECT_TRUE(mip.certify);
  EXPECT_TRUE(mip.lp.certify);
}

TEST(AdversarialDp, ProvablyOptimalOnFig1) {
  // The paper's Fig. 1 example: the worst-case DP gap on that topology
  // with threshold 50 is exactly 100, achieved at (100, 50, 110).
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = work_options(20000);
  options.demand_ub = 200.0;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(r.gap, 100.0, 1e-4);
  EXPECT_NEAR(r.bound, 100.0, 1e-4);  // proven, not just found
  EXPECT_NEAR(r.opt_value, 260.0, 1e-4);
  EXPECT_NEAR(r.heur_value, 160.0, 1e-4);

  // The discovered input is genuinely adversarial per the direct oracle.
  te::DpGapOracle oracle(topo, paths, dp);
  EXPECT_NEAR(oracle.evaluate(r.volumes).gap(), 100.0, 1e-4);
}

TEST(AdversarialDp, GapMatchesDirectOracleOnRing) {
  const Topology topo = topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  const AdversarialResult r = finder.find_dp_gap(dp, work_options(200));
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible ||
              r.status == lp::SolveStatus::TimeLimit);
  EXPECT_GT(r.gap, 0.0);
  te::DpGapOracle oracle(topo, paths, dp);
  EXPECT_NEAR(oracle.evaluate(r.volumes).gap(), r.gap, 1e-3);
}

TEST(AdversarialDp, WhiteBoxBeatsShortRandomSearch) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  // The white box keeps its wall-clock seeding pass: B&B alone stays at
  // a gap of 100 here for thousands of nodes, and the seeded climb is
  // what finds the large gap.
  AdversarialOptions options;
  options.mip.time_limit_seconds = 8.0;
  options.seed_search_seconds = 2.0;
  const AdversarialResult white = finder.find_dp_gap(dp, options);

  // The black box gets at least the evaluations random search made in
  // 8 s on a 4-vCPU Release build (9,020); the seconds are a safety cap.
  te::DpGapOracle oracle(topo, paths, dp);
  search::SearchOptions so;
  so.max_evaluations = 10000;
  so.time_limit_seconds = 30.0;
  so.demand_ub = 1000.0;
  const search::SearchResult black = search::random_search(oracle, so);
  EXPECT_GT(white.gap, black.best.gap());
}

TEST(AdversarialDp, PairMaskRestrictsSupport) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = work_options(200);
  options.pair_mask.assign(paths.num_pairs(), false);
  for (int k = 0; k < 10; ++k) options.pair_mask[k * 11] = true;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible ||
              r.status == lp::SolveStatus::TimeLimit);
  for (std::size_t k = 0; k < r.volumes.size(); ++k) {
    if (!options.pair_mask[k]) {
      EXPECT_NEAR(r.volumes[k], 0.0, 1e-9) << "pair " << k;
    }
  }
}

TEST(AdversarialDp, ShortPairMaskRejected) {
  // A mask must have one entry per pair; a shorter one would be read
  // past its end by both the finder and the bounder.
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  te::DpConfig dp;
  AdversarialOptions options = work_options(1);
  options.pair_mask.assign(paths.num_pairs() / 2, true);
  EXPECT_THROW(
      (void)AdversarialGapFinder(topo, paths).find_dp_gap(dp, options),
      std::invalid_argument);
  EXPECT_THROW(
      (void)AdversarialGapFinder(topo, paths).bound_dp_gap(dp, options),
      std::invalid_argument);
}

TEST(AdversarialDp, HigherThresholdFindsLargerGap) {
  // Fig. 4a's qualitative claim on a small ring, at one node budget for
  // every threshold, so the trend is about thresholds, not solver time.
  const Topology topo = topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  double prev = -1.0;
  for (double threshold : {25.0, 50.0, 100.0}) {
    te::DpConfig dp;
    dp.threshold = threshold;
    const AdversarialResult r = finder.find_dp_gap(dp, work_options(4000));
    EXPECT_GE(r.gap, prev - 1e-6) << "threshold " << threshold;
    prev = r.gap;
  }
}

TEST(AdversarialPop, FindsPositiveExpectedGap) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options = work_options(50);
  const AdversarialResult r = finder.find_pop_gap(pop, {1, 2, 3}, options);
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible ||
              r.status == lp::SolveStatus::TimeLimit);
  EXPECT_GT(r.gap, 0.0);
  // Verify against the direct POP oracle on the same seeds.
  te::PopGapOracle oracle(topo, paths, pop, {1, 2, 3});
  EXPECT_NEAR(oracle.evaluate(r.volumes).gap(), r.gap, 1e-3);
}

TEST(AdversarialPop, KktEncodingMatchesDirectAtScale) {
  // The te_test version of this check runs on a tiny ring without any
  // primal heuristic; here the assembly-driven pipeline handles Abilene.
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options = work_options(50);
  const AdversarialResult r = finder.find_pop_gap(pop, {5}, options);
  te::PopGapOracle oracle(topo, paths, pop, {5});
  const heur::GapResult check = oracle.evaluate(r.volumes);
  EXPECT_NEAR(check.opt, r.opt_value, 1e-3);
  EXPECT_NEAR(check.heur, r.heur_value, 1e-3);
}

TEST(AdversarialDp, ProblemSizesOrdering) {
  // Fig. 6: the metaopt model dominates the plain heuristic/OPT models
  // in every dimension and carries all the SOS constraints.
  const Topology topo = topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  const auto sizes = finder.dp_problem_sizes(dp, AdversarialOptions());
  EXPECT_GT(sizes.metaopt.num_vars, sizes.heuristic.num_vars);
  EXPECT_GT(sizes.metaopt.num_vars, sizes.opt.num_vars);
  EXPECT_GT(sizes.metaopt.num_constraints, sizes.heuristic.num_constraints);
  EXPECT_GT(sizes.metaopt.num_complementarities, 0);
  EXPECT_EQ(sizes.heuristic.num_complementarities, 0);
  EXPECT_EQ(sizes.opt.num_complementarities, 0);
  EXPECT_GT(sizes.metaopt.num_binaries, 0);
}

TEST(AdversarialPop, ProblemSizesGrowWithInstances) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  const auto one = finder.pop_problem_sizes(pop, {1}, AdversarialOptions());
  const auto three =
      finder.pop_problem_sizes(pop, {1, 2, 3}, AdversarialOptions());
  EXPECT_GT(three.metaopt.num_vars, one.metaopt.num_vars);
  EXPECT_GT(three.metaopt.num_complementarities,
            one.metaopt.num_complementarities);
}

TEST(AdversarialDp, BareBnbTimeLimitWithoutIncumbentIsSafe) {
  // Regression: a TimeLimit exit with no incumbent used to hand an empty
  // value vector to finalize_result and crash. The bare configuration
  // (no seed, no primal heuristic, tiny budget) reproduces that path.
  const Topology topo = topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  AdversarialOptions options;
  options.mip.time_limit_seconds = 0.5;
  options.seed_search_seconds = 0.0;
  options.use_primal_heuristic = false;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  EXPECT_FALSE(r.has_solution());
  EXPECT_EQ(r.gap, 0.0);
}

// ---------------------------------------------------------------------
// Input constraints (§3.3, §5)
// ---------------------------------------------------------------------

TEST(InputConstraintsTest, GoalpostRestrictsSolution) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = work_options(20000);
  options.demand_ub = 200.0;
  // Goalpost: all demands within 10 units of 20 -- the Fig. 1 worst case
  // (100, 50, 110) is excluded, so the best gap shrinks drastically.
  Goalpost gp;
  gp.reference.assign(paths.num_pairs(), 20.0);
  gp.max_deviation = 10.0;
  options.constraints.goalposts.push_back(gp);
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible);
  EXPECT_LT(r.gap, 100.0);
  for (std::size_t k = 0; k < r.volumes.size(); ++k) {
    if (paths.paths(k).empty()) continue;
    EXPECT_GE(r.volumes[k], 10.0 - 1e-6);
    EXPECT_LE(r.volumes[k], 30.0 + 1e-6);
  }
}

TEST(InputConstraintsTest, PartialGoalpostLeavesOthersFree) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = work_options(20000);
  options.demand_ub = 200.0;
  // Pin only the (0,2) demand near the threshold; other pairs free.
  Goalpost gp;
  gp.reference.assign(paths.num_pairs(), 0.0);
  gp.mask.assign(paths.num_pairs(), false);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (paths.pair(k) == std::pair<net::NodeId, net::NodeId>{0, 2}) {
      gp.mask[k] = true;
      gp.reference[k] = 50.0;
    }
  }
  gp.max_deviation = 0.5;
  options.constraints.goalposts.push_back(gp);
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(r.has_solution());
  EXPECT_NEAR(r.gap, 100.0, 1.0);  // worst case still reachable
}

TEST(InputConstraintsTest, MeanBandHolds) {
  const Topology topo = topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = work_options(200);
  options.constraints.mean_band = 25.0;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  if (!r.volumes.empty()) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t k = 0; k < r.volumes.size(); ++k) {
      if (!paths.paths(k).empty()) {
        sum += r.volumes[k];
        ++n;
      }
    }
    const double mean = sum / n;
    for (std::size_t k = 0; k < r.volumes.size(); ++k) {
      if (!paths.paths(k).empty()) {
        EXPECT_LE(std::abs(r.volumes[k] - mean), 25.0 + 1e-4);
      }
    }
  }
}

TEST(InputConstraintsTest, ExclusionForcesDifferentInput) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = work_options(20000);
  options.demand_ub = 200.0;
  const AdversarialResult first = finder.find_dp_gap(dp, options);
  ASSERT_EQ(first.status, lp::SolveStatus::Optimal);

  options.constraints.excluded.push_back(first.volumes);
  options.constraints.exclusion_radius = 20.0;
  const AdversarialResult second = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(second.has_solution());
  double linf = 0.0;
  for (std::size_t k = 0; k < first.volumes.size(); ++k) {
    linf = std::max(linf, std::abs(first.volumes[k] - second.volumes[k]));
  }
  EXPECT_GE(linf, 20.0 - 1e-4);
  EXPECT_LE(second.gap, first.gap + 1e-6);
}

TEST(InputConstraintsTest, RejectsMalformedSizes) {
  lp::Model model;
  std::vector<lp::Var> demand{model.add_var("d0", 0.0, 10.0)};
  InputConstraints constraints;
  Goalpost gp;
  gp.reference = {1.0, 2.0};  // wrong size
  constraints.goalposts.push_back(gp);
  EXPECT_THROW(apply_input_constraints(model, demand, constraints, 10.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace metaopt::core
