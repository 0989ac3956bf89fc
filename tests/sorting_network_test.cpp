// Tests for the sorting-network encoding (§3.2 tail percentile).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/sorting_network.h"
#include "mip/branch_and_bound.h"
#include "net/topologies.h"
#include "core/adversarial.h"
#include "te/demand.h"
#include "te/gap.h"
#include "util/rng.h"

namespace metaopt::core {
namespace {

/// Solves a model where the network inputs are fixed variables and
/// checks the outputs are the sorted inputs.
void check_sorts(const std::vector<double>& inputs) {
  lp::Model model;
  std::vector<lp::LinExpr> exprs;
  double ub = 1.0;
  for (double v : inputs) ub = std::max(ub, v + 1.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    exprs.emplace_back(
        model.add_var("x" + std::to_string(i), inputs[i], inputs[i]));
  }
  const SortingNetwork net = encode_sorting_network(model, exprs, ub);
  model.set_objective(lp::ObjSense::Minimize, lp::LinExpr(0.0));
  const auto sol = mip::BranchAndBound().solve(model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);

  std::vector<double> expected = inputs;
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(sol.values[net.sorted[i].id], expected[i], 1e-6)
        << "position " << i;
  }
}

TEST(SortingNetwork, SortsPairs) { check_sorts({5.0, 2.0}); }
TEST(SortingNetwork, SortsSortedInput) { check_sorts({1.0, 2.0, 3.0}); }
TEST(SortingNetwork, SortsReversedInput) { check_sorts({9.0, 6.0, 3.0, 1.0}); }
TEST(SortingNetwork, SortsWithTies) { check_sorts({4.0, 4.0, 1.0, 4.0}); }
TEST(SortingNetwork, SingleInputPassesThrough) { check_sorts({7.0}); }

class SortingNetworkRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SortingNetworkRandomTest, SortsRandomVectors) {
  util::Rng rng(42 + GetParam());
  const int n = rng.uniform_int(2, 6);
  std::vector<double> inputs(n);
  for (double& v : inputs) v = rng.uniform(0.0, 100.0);
  check_sorts(inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortingNetworkRandomTest,
                         ::testing::Range(1, 16));

TEST(SortingNetwork, CompletionMatchesSimulation) {
  lp::Model model;
  std::vector<lp::LinExpr> exprs;
  std::vector<lp::Var> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(model.add_var("x" + std::to_string(i), 0.0, 100.0));
    exprs.emplace_back(vars.back());
  }
  const SortingNetwork net = encode_sorting_network(model, exprs, 100.0);
  const std::vector<double> inputs = {30.0, 10.0, 70.0, 10.0, 50.0};
  std::vector<double> assignment(model.num_vars(), 0.0);
  for (int i = 0; i < 5; ++i) assignment[vars[i].id] = inputs[i];
  complete_sorting_assignment(net, inputs, assignment);
  // The completed point must satisfy every comparator row exactly.
  EXPECT_LE(model.max_violation(assignment), 1e-9);
  EXPECT_NEAR(assignment[net.sorted[0].id], 10.0, 1e-12);
  EXPECT_NEAR(assignment[net.sorted[4].id], 70.0, 1e-12);
}

TEST(SortingNetwork, RejectsEmptyInput) {
  lp::Model model;
  EXPECT_THROW(encode_sorting_network(model, {}, 1.0), std::invalid_argument);
}

TEST(PopPercentile, WorstInstanceObjectiveRunsAndVerifies) {
  // Target the worst of 3 POP instantiations instead of the mean; the
  // verified gap must match OPT minus the minimum per-instance value.
  const net::Topology topo = net::topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options;
  options.mip.time_limit_seconds = 8.0;
  options.seed_search_seconds = 1.5;
  PopObjective objective;
  objective.kind = PopObjective::Kind::Percentile;
  objective.percentile = 0.0;  // worst instantiation
  const std::vector<std::uint64_t> seeds{1, 2, 3};
  const AdversarialResult r =
      finder.find_pop_gap(pop, seeds, options, objective);
  ASSERT_TRUE(r.has_solution());
  EXPECT_GT(r.gap, 0.0);

  te::PopGapOracle oracle(topo, paths, pop, seeds);
  const std::vector<double> per = oracle.per_instance_heur(r.volumes);
  ASSERT_EQ(per.size(), 3u);
  const double worst = *std::min_element(per.begin(), per.end());
  EXPECT_NEAR(r.heur_value, worst, 1e-3);
  // Worst-instance gap dominates the mean gap for the same input.
  const heur::GapResult mean_gap = oracle.evaluate(r.volumes);
  EXPECT_GE(r.gap, mean_gap.gap() - 1e-6);
}

}  // namespace
}  // namespace metaopt::core
