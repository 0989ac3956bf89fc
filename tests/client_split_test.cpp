// Tests for POP client splitting (Appendix A).
#include <gtest/gtest.h>

#include "core/adversarial.h"
#include "kkt/kkt_rewriter.h"
#include "kkt/materialize.h"
#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "net/topologies.h"
#include "te/client_split.h"
#include "te/demand.h"
#include "util/rng.h"

namespace metaopt::te {
namespace {

using net::Topology;
namespace topologies = net::topologies;

ClientSplitConfig cs(double threshold, int max_splits) {
  ClientSplitConfig c;
  c.split_threshold = threshold;
  c.max_splits = max_splits;
  return c;
}

TEST(SplitLevel, FollowsAppendixWindows) {
  const ClientSplitConfig c = cs(100.0, 2);
  EXPECT_EQ(split_level(0.0, c), 0);
  EXPECT_EQ(split_level(99.9, c), 0);
  EXPECT_EQ(split_level(100.0, c), 1);  // d = d_th splits (epsilon case)
  EXPECT_EQ(split_level(199.9, c), 1);
  EXPECT_EQ(split_level(200.0, c), 2);
  EXPECT_EQ(split_level(1000.0, c), 2);  // capped at max_splits
}

TEST(SplitLevel, HonorsMaxSplitsOne) {
  const ClientSplitConfig c = cs(100.0, 1);
  EXPECT_EQ(split_level(99.0, c), 0);
  EXPECT_EQ(split_level(500.0, c), 1);
}

TEST(ClientSplit, PreservesTotalVolume) {
  const ClientSplitConfig c = cs(100.0, 2);
  const std::vector<Demand> in = {{0, 1, 50.0}, {0, 2, 150.0}, {1, 2, 400.0}};
  const std::vector<Demand> out = client_split(in, c);
  ASSERT_EQ(out.size(), 1u + 2u + 4u);
  double total = 0.0;
  for (const Demand& d : out) total += d.volume;
  EXPECT_NEAR(total, 600.0, 1e-9);
  // Level-1 copies have half volume; level-2 quarter volume.
  EXPECT_NEAR(out[1].volume, 75.0, 1e-9);
  EXPECT_NEAR(out[3].volume, 100.0, 1e-9);
}

TEST(ClientSplit, SplitVolumesAreBelowThresholdUnlessCapped) {
  const ClientSplitConfig c = cs(100.0, 3);
  for (double v : {10.0, 100.0, 250.0, 799.0}) {
    const auto out = client_split({{0, 1, v}}, c);
    for (const Demand& d : out) EXPECT_LT(d.volume, 100.0) << "v=" << v;
  }
  // Above 2^{L-1} * T the cap kicks in and copies may stay >= T.
  const auto capped = client_split({{0, 1, 1600.0}}, c);
  EXPECT_EQ(capped.size(), 8u);
  EXPECT_NEAR(capped[0].volume, 200.0, 1e-9);
}

TEST(PopCs, SplittingNeverHurtsBigDemands) {
  // One huge demand on a 2-partition POP: without splitting it lands in
  // one partition and can use only half the capacity; with splitting its
  // virtual clients reach both partitions.
  const Topology topo = topologies::line(3);  // 0-1-2, caps 1000
  const PathSet paths(topo, {{0, 2}}, 2);
  const std::vector<double> volumes = {1000.0};
  double plain_mean = 0.0, split_mean = 0.0;
  constexpr int kSeeds = 6;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PopConfig pop;
    pop.num_partitions = 2;
    pop.seed = seed;
    const PopResult plain = solve_pop(topo, paths, volumes, pop);
    const PopResult split =
        solve_pop_cs(topo, paths, volumes, pop, cs(250.0, 2));
    ASSERT_EQ(plain.status, lp::SolveStatus::Optimal);
    ASSERT_EQ(split.status, lp::SolveStatus::Optimal);
    // Unsplit, the whole demand lands in one partition: exactly half the
    // path capacity. Split, its 4 virtual clients can reach both.
    EXPECT_NEAR(plain.total_flow, 500.0, 1e-6);
    EXPECT_GE(split.total_flow, plain.total_flow - 1e-6);
    plain_mean += plain.total_flow / kSeeds;
    split_mean += split.total_flow / kSeeds;
  }
  EXPECT_GT(split_mean, plain_mean + 100.0);  // splitting helps on average
}

TEST(PopCs, NoSplitsBelowThresholdMatchesPlainPop) {
  const Topology topo = topologies::abilene();
  const PathSet paths(topo, all_pairs(topo), 2);
  DemandGenerator gen(topo, util::Rng(17));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 90.0));
  PopConfig pop;
  pop.num_partitions = 2;
  pop.seed = 5;
  // Threshold above every demand: client splitting is a no-op transform,
  // but the slot universe differs, so only compare against plain POP
  // semantics via the same slot assignment: level 0 slots only.
  const PopResult with_cs =
      solve_pop_cs(topo, paths, volumes, pop, cs(1000.0, 2));
  ASSERT_EQ(with_cs.status, lp::SolveStatus::Optimal);
  // POP with some partitioning: value is at most OPT and at least 0.
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  EXPECT_LE(with_cs.total_flow, opt.total_flow + 1e-6);
  EXPECT_GT(with_cs.total_flow, 0.0);
}

/// Encoding vs procedural equivalence at fixed demands.
void check_encoding_matches(const Topology& topo, const PathSet& paths,
                            const std::vector<double>& volumes,
                            const PopConfig& pop,
                            const ClientSplitConfig& config) {
  const PopResult direct = solve_pop_cs(topo, paths, volumes, pop, config);
  ASSERT_EQ(direct.status, lp::SolveStatus::Optimal);

  lp::Model model;
  std::vector<lp::Var> demand;
  double ub = 0.0;
  for (double v : volumes) ub = std::max(ub, v);
  ub = std::max(ub, 1.0);
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    demand.push_back(
        model.add_var("d" + std::to_string(k), volumes[k], volumes[k]));
  }
  PopCsEncoding enc =
      build_pop_cs(model, topo, paths, demand, ub, pop, config);
  for (const kkt::InnerProblem& inner : enc.partitions) {
    kkt::materialize_constraints(model, inner);
  }
  model.set_objective(lp::ObjSense::Maximize, enc.total_flow);
  mip::MipOptions opt;
  opt.time_limit_seconds = 60.0;
  const auto sol = mip::BranchAndBound(opt).solve(model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, direct.total_flow, 1e-4);
}

TEST(PopCs, EncodingMatchesProceduralLine) {
  const Topology topo = topologies::line(3);
  const PathSet paths(topo, {{0, 2}, {0, 1}}, 2);
  PopConfig pop;
  pop.num_partitions = 2;
  pop.seed = 3;
  check_encoding_matches(topo, paths, {1000.0, 120.0}, pop, cs(250.0, 2));
}

class PopCsEncodingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PopCsEncodingPropertyTest, EncodingMatchesProceduralRandom) {
  const Topology topo = topologies::circulant(5, 1);
  const PathSet paths(topo, all_pairs(topo), 2);
  util::Rng rng(300 + GetParam());
  std::vector<double> volumes;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    volumes.push_back(rng.uniform(0.0, 500.0));
  }
  ClientSplitConfig config = cs(150.0, 2);
  // Avoid the epsilon band at level boundaries.
  for (double& v : volumes) {
    for (double boundary : {150.0, 300.0}) {
      if (v >= boundary - 2 * kIndicatorEpsilon && v < boundary) v = boundary;
    }
  }
  PopConfig pop;
  pop.num_partitions = 2;
  pop.seed = 11 + GetParam();
  check_encoding_matches(topo, paths, volumes, pop, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopCsEncodingPropertyTest,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace metaopt::te

namespace metaopt::core {
namespace {

TEST(AdversarialPopCs, FindsPositiveGapAndVerifies) {
  const net::Topology topo = net::topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  te::ClientSplitConfig cs;
  cs.split_threshold = 500.0;
  cs.max_splits = 1;
  AdversarialOptions options;
  options.mip.time_limit_seconds = 10.0;
  options.seed_search_seconds = 2.0;
  const std::vector<std::uint64_t> seeds{3, 4};
  const AdversarialResult r =
      finder.find_pop_cs_gap(pop, cs, seeds, options);
  ASSERT_TRUE(r.has_solution());
  EXPECT_GT(r.gap, 0.0);

  // Verify the reported gap against the direct POP-CS solver.
  const te::MaxFlowResult opt = te::solve_max_flow(topo, paths, r.volumes);
  double mean = 0.0;
  for (std::uint64_t seed : seeds) {
    te::PopConfig c = pop;
    c.seed = seed;
    mean += te::solve_pop_cs(topo, paths, r.volumes, c, cs).total_flow /
            static_cast<double>(seeds.size());
  }
  EXPECT_NEAR(r.gap, opt.total_flow - mean, 1e-3);
}

TEST(AdversarialPopCs, SplittingShrinksTheWorstCase) {
  // Client splitting is POP's defense against stranded capacity: the
  // adversary's best gap with splitting enabled (low threshold, so big
  // demands split) should not exceed the plain-POP worst case found
  // with the same budget by much — and typically is smaller.
  const net::Topology topo = net::topologies::line(3);
  const te::PathSet paths(topo, {{0, 2}}, 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options;
  options.mip.time_limit_seconds = 8.0;
  options.seed_search_seconds = 2.0;
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};

  const AdversarialResult plain = finder.find_pop_gap(pop, seeds, options);

  te::ClientSplitConfig cs;
  cs.split_threshold = 250.0;
  cs.max_splits = 2;
  const AdversarialResult split =
      finder.find_pop_cs_gap(pop, cs, seeds, options);
  ASSERT_TRUE(plain.has_solution());
  ASSERT_TRUE(split.has_solution());
  EXPECT_LT(split.gap, plain.gap + 1e-6);
}

}  // namespace
}  // namespace metaopt::core
