// Tests for the vector bin-packing domain: the FF/FFD simulator, the
// exact OPT assignment MIP, the gap oracle, the single-shot encoding's
// completion path, and the white-box adversarial search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "binpack/adversarial.h"
#include "binpack/binpack.h"
#include "binpack/encoding.h"
#include "binpack/instance.h"
#include "heur/instance.h"
#include "kkt/kkt_rewriter.h"
#include "kkt/parametric.h"
#include "lp/model.h"
#include "util/rng.h"

namespace metaopt::binpack {
namespace {

BinPackConfig config_1d(int items, bool decreasing = true) {
  BinPackConfig config;
  config.items = items;
  config.decreasing = decreasing;
  return config;
}

// The canonical gap-1 instance: FFD pairs the two 0.4s first and strands
// a 0.3, OPT packs two perfect {0.4, 0.3, 0.3} bins.
const std::vector<double> kGapOne = {0.4, 0.4, 0.3, 0.3, 0.3, 0.3};

// ------------------------------------------------------------ simulator

TEST(FirstFitSim, FfdOpensThreeBinsOnGapOneInstance) {
  const FirstFitResult r = simulate_first_fit(kGapOne, config_1d(6));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.bins_used, 3);
  // Items 0,1 (the 0.4s) share bin 0; the last 0.3 overflows into bin 2.
  EXPECT_EQ(r.assignment[0], 0);
  EXPECT_EQ(r.assignment[1], 0);
  EXPECT_EQ(r.assignment[5], 2);
}

TEST(FirstFitSim, FfSeesArrivalOrder) {
  // Interleaved arrival {0.3, 0.4, ...}: plain FF fills bin 0 with
  // 0.3+0.4+0.3 = 1.0 exactly and fits everything into two bins — the
  // decreasing sort is what breaks this instance.
  const std::vector<double> sizes = {0.3, 0.4, 0.3, 0.3, 0.4, 0.3};
  const FirstFitResult ff = simulate_first_fit(sizes, config_1d(6, false));
  ASSERT_TRUE(ff.feasible);
  EXPECT_EQ(ff.bins_used, 2);
  const FirstFitResult ffd = simulate_first_fit(sizes, config_1d(6, true));
  EXPECT_EQ(ffd.bins_used, 3);
}

TEST(FirstFitSim, FfdSortsStablyByKeyThenIndex) {
  const FirstFitResult r = simulate_first_fit(kGapOne, config_1d(6));
  // Keys 0.4,0.4,0.3,0.3,0.3,0.3: the order is the identity (already
  // sorted), with equal keys kept in original index order.
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(FirstFitSim, TwoDimItemFitsOnlyIfAllDimsFit) {
  BinPackConfig config;
  config.items = 2;
  config.dims = 2;
  config.decreasing = false;
  // Item 0 = (0.6, 0.2), item 1 = (0.3, 0.9): dim 0 would fit both in
  // one bin (0.9), dim 1 would not (1.1) — vector packing needs 2 bins.
  const FirstFitResult r =
      simulate_first_fit({0.6, 0.2, 0.3, 0.9}, config);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.bins_used, 2);
}

TEST(FirstFitSim, BinBudgetExhaustionIsInfeasible) {
  BinPackConfig config = config_1d(2);
  config.bins = 1;
  const FirstFitResult r = simulate_first_fit({0.6, 0.6}, config);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.assignment[1], -1);
}

// ------------------------------------------------------------- OPT MIP

TEST(OptBins, PacksGapOneInstanceInTwoBins) {
  const OptBinResult r = solve_opt_bins(kGapOne, config_1d(6));
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(r.bins_used, 2);
}

TEST(OptBins, CertifiedWhenAsked) {
  mip::MipOptions mip = default_opt_mip();
  mip.certify = true;
  mip.lp.certify = true;
  const OptBinResult r = solve_opt_bins(kGapOne, config_1d(6), mip);
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(r.certified);
}

TEST(OptBins, AllZeroSizesUseOneBin) {
  const OptBinResult r = solve_opt_bins({0.0, 0.0, 0.0}, config_1d(3));
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(r.bins_used, 1);
}

// -------------------------------------------------------------- oracle

TEST(BinPackOracle, GapOneInstanceScoresOne) {
  const BinPackGapOracle oracle(config_1d(6));
  EXPECT_EQ(oracle.num_leader_vars(), 6);
  const heur::GapResult g = oracle.evaluate(kGapOne);
  ASSERT_TRUE(g.heuristic_feasible);
  EXPECT_EQ(g.sense, lp::ObjSense::Minimize);
  EXPECT_DOUBLE_EQ(g.heur, 3.0);
  EXPECT_DOUBLE_EQ(g.opt, 2.0);
  EXPECT_DOUBLE_EQ(g.gap(), 1.0);
}

TEST(BinPackOracle, InfeasibleInputSteersSearchersAway) {
  BinPackConfig config = config_1d(2);
  config.bins = 1;
  const BinPackGapOracle oracle(config);
  const heur::GapResult g = oracle.evaluate({0.6, 0.6});
  EXPECT_FALSE(g.heuristic_feasible);
  EXPECT_DOUBLE_EQ(g.gap(), -1.0);
}

// The classic worst-case guarantee (Ullman '71 / Dosa's tight constant):
// FFD(I) <= 11/9 OPT(I) + 6/9 on every 1-D instance. A randomized corpus
// cross-checks the simulator against the assignment MIP — a simulator
// bug that over-opens bins lands above the line, an OPT bug below it.
TEST(BinPackProperty, FfdWithinElevenNinthsOfOptOn1dCorpus) {
  util::Rng rng(20260809);
  const BinPackConfig config = config_1d(8);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> sizes(8);
    for (double& s : sizes) {
      // 1/16 grid keeps every partial sum far from the epsilon band.
      s = rng.uniform_int(0, 16) / 16.0;
    }
    const FirstFitResult ffd = simulate_first_fit(sizes, config);
    ASSERT_TRUE(ffd.feasible);
    const OptBinResult opt = solve_opt_bins(sizes, config);
    ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
    EXPECT_LE(ffd.bins_used, (11.0 * opt.bins_used + 6.0) / 9.0 + 1e-9)
        << "FFD guarantee violated at trial " << trial;
    EXPECT_GE(ffd.bins_used, opt.bins_used);
  }
}

// ------------------------------------------------------------ encoding

struct EncodingFixture {
  BinPackConfig config = config_1d(6);
  lp::Model model;
  std::vector<lp::Var> svars;
  FfdEncoding enc;

  EncodingFixture() {
    for (int i = 0; i < config.items; ++i) {
      svars.push_back(
          model.add_var("s[" + std::to_string(i) + "]", 0.0, config.ub()));
    }
    enc = build_ffd(model, svars, config);
  }
};

TEST(FfdEncoding, CompletionMatchesSimulatorOnGapOneInstance) {
  EncodingFixture f;
  std::vector<double> assign(f.model.num_vars(), 0.0);
  const std::optional<int> bins =
      complete_ffd_assignment(f.enc, kGapOne, assign);
  ASSERT_TRUE(bins.has_value());
  EXPECT_EQ(*bins, 3);
  EXPECT_DOUBLE_EQ(f.model.eval(f.enc.bins_used, assign), 3.0);
}

TEST(FfdEncoding, CompletedPointSatisfiesWholeSingleShotModel) {
  // The completion + KKT assembly must produce a feasible point of the
  // full single-shot model (rows, bounds, complementarity): this is the
  // witness that the big-M unrolling admits the simulated FFD run.
  EncodingFixture f;
  const kkt::KktArtifacts art = kkt::emit_kkt(f.model, f.enc.inner, "opt.");
  f.model.set_objective(lp::ObjSense::Maximize,
                        f.enc.bins_used - art.objective_expr);
  std::vector<double> assign(f.model.num_vars(), 0.0);
  ASSERT_TRUE(complete_ffd_assignment(f.enc, kGapOne, assign).has_value());
  const kkt::InnerLp lp(f.enc.inner, f.model);
  const kkt::ParametricSolve ps = lp.solve(assign);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(kkt::assemble_kkt_point(lp, art, ps, assign));
  EXPECT_NEAR(f.model.max_violation(assign), 0.0, 1e-7);
  // Surrogate objective at this point: 3 bins - volume bound max(1, 2.0).
  EXPECT_NEAR(f.model.objective_value(assign), 1.0, 1e-7);
}

TEST(FfdEncoding, CompletionRejectsUnsortedSizesUnderFfd) {
  EncodingFixture f;
  std::vector<double> assign(f.model.num_vars(), 0.0);
  // 0.3 before 0.4 violates the WLOG sortedness rows.
  const std::vector<double> unsorted = {0.3, 0.4, 0.4, 0.3, 0.3, 0.3};
  EXPECT_FALSE(complete_ffd_assignment(f.enc, unsorted, assign).has_value());
}

TEST(FfdEncoding, CompletionRejectsDeadBandDecisions) {
  EncodingFixture f;
  // 0.5 + 0.50003 lands the bin-0 fit decision for item 1 inside
  // (C, C + eps): outside the encoded leader set by construction.
  std::vector<double> assign(f.model.num_vars(), 0.0);
  const std::vector<double> banded = {0.50003, 0.5, 0.0, 0.0, 0.0, 0.0};
  EXPECT_FALSE(complete_ffd_assignment(f.enc, banded, assign).has_value());
}

// ------------------------------------------------- adversarial helpers

TEST(Adversarial, WorstCaseFamilyScoresPositiveGap) {
  const BinPackConfig config = config_1d(6);
  const std::vector<double> sizes = worst_case_family(config);
  const BinPackGapOracle oracle(config);
  const heur::GapResult g = oracle.evaluate(sizes);
  ASSERT_TRUE(g.heuristic_feasible);
  EXPECT_GE(g.gap(), 1.0);
}

TEST(Adversarial, QuantizeLevelsAreSortedUniqueWithinBox) {
  const std::vector<double> levels = quantize_levels(config_1d(6));
  ASSERT_GE(levels.size(), 3u);
  EXPECT_DOUBLE_EQ(levels.front(), 0.0);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i - 1], levels[i]);
    EXPECT_LE(levels[i], config_1d(6).ub());
  }
}

// The end-to-end acceptance check: the white-box search on 6 items must
// find (and certify) a gap of at least one whole bin.
TEST(Adversarial, FindFfdGapCertifiesAtLeastOneBin) {
  BinPackConfig config = config_1d(6);
  heur::FindOptions options;
  options.budget_seconds = 60.0;
  options.certify = true;
  options.seed_search_seconds = 0.0;  // deterministic path
  const heur::GapFindResult r = find_ffd_gap(config, options);
  ASSERT_TRUE(r.has_solution());
  EXPECT_GE(r.gap, 1.0);
  EXPECT_TRUE(r.certified);
  EXPECT_GE(r.bound + 1e-6, r.gap);  // surrogate bound stays an upper bound
  EXPECT_EQ(static_cast<int>(r.volumes.size()), 6);
  // The reported point must reproduce the gap under direct simulation.
  const BinPackGapOracle oracle(config);
  EXPECT_DOUBLE_EQ(oracle.evaluate(r.volumes).gap(), r.gap);
}

// ------------------------------------------------------------ instance

TEST(BinPackInstance, RegistryInterfaceIsCoherent) {
  heur::InstanceConfig config;
  config.heuristic = "ffd";
  config.items = 6;
  const std::unique_ptr<heur::HeuristicInstance> instance =
      make_binpack_instance(config, /*decreasing=*/true);
  EXPECT_EQ(instance->name(), "ffd");
  EXPECT_EQ(instance->num_leader_vars(), 6);
  EXPECT_DOUBLE_EQ(instance->leader_ub(), 1.0);
  EXPECT_DOUBLE_EQ(instance->gap_normalizer(), 6.0);
  EXPECT_FALSE(instance->leader_var_name(0).empty());
  EXPECT_FALSE(instance->quantize_levels().empty());
  const std::unique_ptr<heur::GapOracle> oracle = instance->make_oracle();
  EXPECT_DOUBLE_EQ(oracle->evaluate(kGapOne).gap(), 1.0);
}

}  // namespace
}  // namespace metaopt::binpack
