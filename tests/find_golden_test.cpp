// Fixed-work golden answers for every white-box find entry point.
//
// Each case runs with seeding off, one B&B thread and either a node
// budget or a proof of optimality, so its answer is a pure function of
// the code: the node count, gap, bound, witness and model statistics
// below are exact. They pin the single-shot pipeline (build order and
// so variable ids, snapping, completion, rounding variants, B&B and
// finalize); a refactor that moves any of them moves a golden value.
// Cases that prove optimality are rerun at two and four B&B threads and
// must prove the bit-identical gap and bound. The node count may differ
// there, and so may the witness when the optimum has ties, so the rerun
// witness is re-scored by direct solves instead of compared. The DP
// determinism gate adds certified fig1 proofs at thresholds 25 and 100
// and six-pair B4 and ring proofs, each bit-identical at one, two and
// four threads. Every case runs with metrics on, no node LP may fail
// (bnb.nodes_failed = 0) and no witness entry may be -0.0.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "binpack/adversarial.h"
#include "binpack/binpack.h"
#include "core/adversarial.h"
#include "net/topologies.h"
#include "obs/metrics.h"
#include "te/demand.h"
#include "te/gap.h"
#include "te/max_flow.h"

namespace metaopt {
namespace {

struct Golden {
  lp::SolveStatus status;
  long nodes;
  double gap;
  double bound;
  double opt_value;
  double heur_value;
  lp::ModelStats stats;
  std::vector<double> volumes;
};

/// No witness entry is -0.0: leader values are canonical, so equal
/// vectors have equal bits (the duplicate-rounding check and the inner
/// solve cache compare bits).
void expect_no_negative_zero(const std::vector<double>& volumes) {
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    EXPECT_FALSE(std::signbit(volumes[k])) << "entry " << k;
  }
}

void expect_golden(const heur::GapFindResult& r, const Golden& g) {
  expect_no_negative_zero(r.volumes);
  EXPECT_EQ(r.status, g.status);
  EXPECT_EQ(r.nodes, g.nodes);
  EXPECT_EQ(r.gap, g.gap);
  EXPECT_EQ(r.bound, g.bound);
  EXPECT_EQ(r.opt_value, g.opt_value);
  EXPECT_EQ(r.heur_value, g.heur_value);
  EXPECT_EQ(r.volumes, g.volumes);
  EXPECT_EQ(r.stats.num_vars, g.stats.num_vars);
  EXPECT_EQ(r.stats.num_binaries, g.stats.num_binaries);
  EXPECT_EQ(r.stats.num_constraints, g.stats.num_constraints);
  EXPECT_EQ(r.stats.num_complementarities, g.stats.num_complementarities);
  EXPECT_EQ(r.stats.num_nonzeros, g.stats.num_nonzeros);
}

/// Same proved answer as `ref`, whatever the node count; `rescore`
/// gives the direct gap of a witness.
void expect_same_answer(
    const heur::GapFindResult& r, const heur::GapFindResult& ref,
    const std::function<double(const std::vector<double>&)>& rescore) {
  EXPECT_EQ(r.status, ref.status);
  EXPECT_EQ(r.gap, ref.gap);
  EXPECT_EQ(r.bound, ref.bound);
  ASSERT_TRUE(r.has_solution());
  expect_no_negative_zero(r.volumes);
  EXPECT_NEAR(rescore(r.volumes), r.gap, 1e-6);
}

/// Records metrics across each case and checks that no node LP failed.
class FindGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    before_ = obs::snapshot();
  }
  void TearDown() override {
    const obs::MetricsSnapshot d = obs::diff(before_, obs::snapshot());
    obs::set_enabled(false);
    EXPECT_GT(count(d, "simplex.solves"), 0.0);
    EXPECT_EQ(count(d, "bnb.nodes_failed"), 0.0);
  }

 private:
  static double count(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? 0.0 : m->value;
  }

  obs::MetricsSnapshot before_;
};

core::AdversarialOptions fixed_work(double demand_ub, long max_nodes,
                                    int threads = 1) {
  core::AdversarialOptions o;
  o.demand_ub = demand_ub;
  o.mip.max_nodes = max_nodes;
  o.mip.time_limit_seconds = 3600.0;  // a safety cap, never the stop
  o.mip.threads = threads;
  o.seed_search_seconds = 0.0;
  return o;
}

constexpr long kProve = 1000000;  ///< node budget for cases that prove

/// B&B thread counts every proving case is rerun at.
constexpr int kRerunThreads[] = {2, 4};

struct Fig1 {
  net::Topology topo = net::topologies::fig1();
  te::PathSet paths{topo, te::all_pairs(topo), 2};
  core::AdversarialGapFinder finder{topo, paths};
};

TEST_F(FindGolden, DpFig1ProvesGap100) {
  const Fig1 f;
  te::DpConfig dp;
  dp.threshold = 50.0;
  const heur::GapFindResult r =
      f.finder.find_dp_gap(dp, fixed_work(200.0, kProve));
  expect_golden(r, {lp::SolveStatus::Optimal, 364, 100.0, 100.0, 260.0,
                    160.0, {62, 3, 38, 24, 109},
                    {100.0, 50.0, 0.0, 110.0, 0.0, 0.0}});
  const te::DpGapOracle oracle(f.topo, f.paths, dp);
  for (const int threads : kRerunThreads) {
    expect_same_answer(
        f.finder.find_dp_gap(dp, fixed_work(200.0, kProve, threads)), r,
        [&](const std::vector<double>& v) { return oracle.evaluate(v).gap(); });
  }
}

/// The DP determinism gate: a certified proof of `gap` in `nodes` nodes
/// at one thread, whose gap and bound are bit-identical at two and four.
void expect_dp_threads_bit_identical(const net::Topology& topo,
                                     double threshold, double demand_ub,
                                     int pairs, long nodes, double gap) {
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  const core::AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = threshold;
  const auto options = [&](int threads) {
    core::AdversarialOptions o = fixed_work(demand_ub, kProve, threads);
    o.mip.certify = true;
    if (pairs > 0) {
      // `pairs` adversarial pairs spread evenly over the pair list.
      o.pair_mask.assign(paths.num_pairs(), false);
      const int stride = paths.num_pairs() / pairs;
      for (int i = 0; i < pairs; ++i) o.pair_mask[i * stride] = true;
    }
    return o;
  };
  const heur::GapFindResult r = finder.find_dp_gap(dp, options(1));
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  expect_no_negative_zero(r.volumes);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.nodes, nodes);
  EXPECT_EQ(r.gap, gap);
  EXPECT_EQ(r.bound, gap);
  const te::DpGapOracle oracle(topo, paths, dp);
  for (const int threads : kRerunThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const heur::GapFindResult par = finder.find_dp_gap(dp, options(threads));
    expect_same_answer(par, r, [&](const std::vector<double>& v) {
      return oracle.evaluate(v).gap();
    });
    EXPECT_TRUE(par.certified);
  }
}

TEST_F(FindGolden, DpFig1ThresholdsBitIdenticalAcrossThreads) {
  {
    SCOPED_TRACE("threshold 25");
    expect_dp_threads_bit_identical(net::topologies::fig1(), 25.0, 200.0, 0,
                                    501, 50.0);
  }
  {
    SCOPED_TRACE("threshold 100");
    expect_dp_threads_bit_identical(net::topologies::fig1(), 100.0, 200.0, 0,
                                    73, 150.0);
  }
}

TEST_F(FindGolden, DpB4SixPairsBitIdenticalAcrossThreads) {
  // demand_ub 0 = the largest link capacity; six adversarial pairs keep
  // the tree closable (§3's scalability caveat).
  expect_dp_threads_bit_identical(net::topologies::b4(), 50.0, 0.0, 6, 8908,
                                  150.0000000000002);
}

TEST_F(FindGolden, DpRing6SixPairsBitIdenticalAcrossThreads) {
  // A six-node ring with six of its 30 pairs adversarial and demand_ub
  // 0 = the largest link capacity: DP provably has no gap here (gap and
  // bound 0 after 8,647 nodes), a certified negative answer every thread
  // count must reproduce. The unrestricted ring does not close quickly.
  expect_dp_threads_bit_identical(net::topologies::circulant(6, 1), 50.0, 0.0,
                                  6, 8647, 0.0);
}

TEST_F(FindGolden, DpAbileneMaskedAtNodeBudget) {
  const net::Topology topo = net::topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  const core::AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  core::AdversarialOptions options = fixed_work(400.0, 200);
  options.pair_mask.assign(paths.num_pairs(), false);
  for (int k = 0; k < paths.num_pairs(); k += 5) options.pair_mask[k] = true;
  const heur::GapFindResult r = finder.find_dp_gap(dp, options);

  std::vector<double> volumes(paths.num_pairs(), 0.0);
  const std::vector<std::pair<int, double>> nonzero = {
      {10, 399.99999999999994}, {15, 400.0}, {20, 400.0}, {25, 400.0},
      {30, 400.0}, {35, 400.0}, {40, 400.0}, {45, 400.0}, {50, 400.0},
      {55, 400.0}, {60, 50.0}, {65, 400.0}, {75, 400.0}, {80, 50.0},
      {85, 400.0}, {90, 50.0}, {95, 400.0}, {105, 400.0}};
  for (const auto& [k, v] : nonzero) volumes[k] = v;
  expect_golden(r, {lp::SolveStatus::Feasible, 200, 150.0, 5600.0, 6000.0,
                    5850.0, {576, 22, 354, 222, 1384}, volumes});
}

TEST_F(FindGolden, PopMeanProvesOnFig1) {
  const Fig1 f;
  te::PopConfig pop;
  pop.num_partitions = 2;
  const std::vector<std::uint64_t> seeds{1, 2};
  const heur::GapFindResult r =
      f.finder.find_pop_gap(pop, seeds, fixed_work(0.0, kProve));
  expect_golden(r, {lp::SolveStatus::Optimal, 96, 117.5, 117.5, 260.0,
                    142.5, {81, 0, 45, 33, 120},
                    {100.0, 50.0, 0.0, 110.0, 0.0, 0.0}});
  const te::PopGapOracle oracle(f.topo, f.paths, pop, seeds);
  for (const int threads : kRerunThreads) {
    expect_same_answer(
        f.finder.find_pop_gap(pop, seeds, fixed_work(0.0, kProve, threads)), r,
        [&](const std::vector<double>& v) { return oracle.evaluate(v).gap(); });
  }
}

TEST_F(FindGolden, FfdProvesOnSixItems) {
  binpack::BinPackConfig config;
  config.items = 6;
  heur::FindOptions options;
  options.budget_seconds = 3600.0;  // a safety cap; the B&B proves first
  options.seed_search_seconds = 0.0;
  const heur::GapFindResult r = binpack::find_ffd_gap(config, options);
  expect_golden(r, {lp::SolveStatus::Optimal, 17, 1.0, 2.9997000000000003,
                    2.0, 3.0, {103, 69, 235, 3, 601},
                    {0.45, 0.45, 0.26, 0.26, 0.26, 0.26}});
  const binpack::BinPackGapOracle oracle(config);
  for (const int threads : kRerunThreads) {
    options.mip_threads = threads;
    expect_same_answer(
        binpack::find_ffd_gap(config, options), r,
        [&](const std::vector<double>& v) { return oracle.evaluate(v).gap(); });
  }
}

}  // namespace
}  // namespace metaopt
