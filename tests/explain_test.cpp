// explain/: core minimization, clustering, and the end-to-end driver.
//
// The minimizer contract is checked three ways: on a synthetic instance
// whose ground-truth core is known exactly, on the real fig1 DP witness
// (the paper's motivating example, padded with a demand that cannot
// matter), and on the classic FFD counterexample padded with a tiny
// item — both real cases must shrink strictly below the witness support
// through the same code path. The gap-floor corpus pins the cores and
// probe counts of every recorded witness.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "explain/cluster.h"
#include "explain/core_minimizer.h"
#include "explain/explain.h"
#include "explain/probe.h"
#include "heur/instance.h"
#include "runner/jsonl_io.h"
#include "runner/sweep_runner.h"

namespace metaopt {
namespace {

/// Synthetic instance: gap = 10 iff every element of `required` carries
/// a nonzero leader value, else 0. The unique minimal core is exactly
/// `required`, so minimizer correctness is directly checkable.
class FakeOracle final : public heur::GapOracle {
 public:
  FakeOracle(int n, std::vector<int> required)
      : n_(n), required_(std::move(required)) {}

  [[nodiscard]] int num_leader_vars() const override { return n_; }
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>& leader) const override {
    count_evaluation();
    heur::GapResult result;
    result.status = lp::SolveStatus::Optimal;
    result.heuristic_feasible = true;
    result.certified = true;
    bool all = true;
    for (const int e : required_) all = all && leader[e] > 0.0;
    result.opt = all ? 10.0 : 0.0;
    result.heur = 0.0;
    return result;
  }

 private:
  int n_;
  std::vector<int> required_;
};

class FakeInstance final : public heur::HeuristicInstance {
 public:
  FakeInstance(int n, std::vector<int> required)
      : n_(n), required_(std::move(required)) {}

  [[nodiscard]] std::string name() const override { return "fake"; }
  [[nodiscard]] int num_leader_vars() const override { return n_; }
  [[nodiscard]] double leader_ub() const override { return 1.0; }
  [[nodiscard]] double gap_normalizer() const override { return 10.0; }
  [[nodiscard]] std::string leader_var_name(int k) const override {
    return "x[" + std::to_string(k) + "]";
  }
  [[nodiscard]] std::vector<double> quantize_levels() const override {
    return {0.0, 1.0};
  }
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_oracle()
      const override {
    return std::make_unique<FakeOracle>(n_, required_);
  }
  [[nodiscard]] heur::GapFindResult find_gap(
      const heur::FindOptions&) const override {
    return {};
  }

 private:
  int n_;
  std::vector<int> required_;
};

TEST(ProbeContext, SupportAndMasking) {
  const FakeInstance instance(5, {1, 3});
  explain::ProbeContext ctx(instance, {0.0, 1.0, 0.0, 1.0, 0.5});
  EXPECT_EQ(ctx.support(), (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(ctx.masked_vector({1, 4}),
            (std::vector<double>{0.0, 1.0, 0.0, 0.0, 0.5}));

  EXPECT_DOUBLE_EQ(ctx.probe({1, 3}).gap, 10.0);
  EXPECT_DOUBLE_EQ(ctx.probe({1, 4}).gap, 0.0);
  EXPECT_EQ(ctx.probes(), 2);
  // Unsorted and duplicated keeps memo-hit the sorted key.
  EXPECT_DOUBLE_EQ(ctx.probe({3, 1, 3}).gap, 10.0);
  EXPECT_EQ(ctx.probes(), 2);
  EXPECT_EQ(ctx.cache_hits(), 1);
  EXPECT_TRUE(ctx.all_certified());
}

TEST(CoreMinimizer, FindsTheUniqueCore) {
  const FakeInstance instance(12, {2, 7, 9});
  explain::ProbeContext ctx(instance, std::vector<double>(12, 1.0));
  explain::MinimizeOptions options;
  options.min_gap = 5.0;
  const explain::CoreResult core = explain::minimize_core(ctx, options);
  EXPECT_EQ(core.core, (std::vector<int>{2, 7, 9}));
  EXPECT_TRUE(core.minimal);
  EXPECT_TRUE(core.certified);
  EXPECT_DOUBLE_EQ(core.gap, 10.0);
  EXPECT_GT(core.probes, 0);
}

TEST(CoreMinimizer, OneElementCoreProbesTheEmptySet) {
  // The last pass proves 1-minimality, so a one-element core must have
  // had its single deletion (the empty keep-set) probed too.
  const FakeInstance instance(5, {3});
  explain::ProbeContext ctx(instance, std::vector<double>(5, 1.0));
  explain::MinimizeOptions options;
  options.min_gap = 5.0;
  const explain::CoreResult core = explain::minimize_core(ctx, options);
  EXPECT_EQ(core.core, (std::vector<int>{3}));
  EXPECT_TRUE(core.minimal);
  const long probes = ctx.probes();
  EXPECT_DOUBLE_EQ(ctx.probe({}).gap, 0.0);
  EXPECT_EQ(ctx.probes(), probes) << "the empty set was never probed";
}

TEST(CoreMinimizer, WitnessBelowThresholdIsNotMinimized) {
  const FakeInstance instance(6, {0});
  explain::ProbeContext ctx(instance, std::vector<double>(6, 1.0));
  explain::MinimizeOptions options;
  options.min_gap = 50.0;  // unreachable: the fake gap is 10
  const explain::CoreResult core = explain::minimize_core(ctx, options);
  EXPECT_FALSE(core.minimal);
  EXPECT_EQ(core.core, ctx.support());
}

TEST(CoreMinimizer, SeedReproducesTieBreaks) {
  // Any one of {0,1,2} alone suffices: three equally valid singleton
  // cores. The same seed must land on the same one, twice.
  class AnyOfOracle final : public heur::GapOracle {
   public:
    [[nodiscard]] int num_leader_vars() const override { return 6; }
    [[nodiscard]] heur::GapResult evaluate(
        const std::vector<double>& leader) const override {
      count_evaluation();
      heur::GapResult r;
      r.status = lp::SolveStatus::Optimal;
      r.heuristic_feasible = true;
      r.certified = true;
      r.opt = (leader[0] > 0 || leader[1] > 0 || leader[2] > 0) ? 10.0 : 0.0;
      return r;
    }
  };
  class AnyOfInstance final : public heur::HeuristicInstance {
   public:
    [[nodiscard]] std::string name() const override { return "anyof"; }
    [[nodiscard]] int num_leader_vars() const override { return 6; }
    [[nodiscard]] double leader_ub() const override { return 1.0; }
    [[nodiscard]] double gap_normalizer() const override { return 10.0; }
    [[nodiscard]] std::string leader_var_name(int k) const override {
      return "x[" + std::to_string(k) + "]";
    }
    [[nodiscard]] std::vector<double> quantize_levels() const override {
      return {0.0, 1.0};
    }
    [[nodiscard]] std::unique_ptr<heur::GapOracle> make_oracle()
        const override {
      return std::make_unique<AnyOfOracle>();
    }
    [[nodiscard]] heur::GapFindResult find_gap(
        const heur::FindOptions&) const override {
      return {};
    }
  };

  const AnyOfInstance instance;
  std::vector<int> first_core;
  for (int run = 0; run < 2; ++run) {
    explain::ProbeContext ctx(instance, std::vector<double>(6, 1.0));
    explain::MinimizeOptions options;
    options.min_gap = 5.0;
    options.seed = 42;
    const explain::CoreResult core = explain::minimize_core(ctx, options);
    ASSERT_EQ(core.core.size(), 1u);
    EXPECT_LE(core.core[0], 2);
    if (run == 0) {
      first_core = core.core;
    } else {
      EXPECT_EQ(core.core, first_core);
    }
  }
}

TEST(ExplainWitness, Fig1DpCoreShrinksBelowSupport) {
  heur::InstanceConfig config;
  config.heuristic = "dp";
  config.topology = "fig1";
  config.threshold = 50.0;
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(config);

  // The Fig. 1 witness (pairs ordered (0,1),(0,2),(1,0),(1,2),(2,0),
  // (2,1)): d[0->1]=100, d[0->2]=50, d[1->2]=110, padded with a demand
  // on the pathless pair 1->0 that cannot affect any allocation.
  const std::vector<double> witness = {100.0, 50.0, 5.0, 110.0, 0.0, 0.0};

  const explain::ExplainOutcome outcome =
      explain::explain_witness(*instance, witness, {});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.report.support_size, 4);
  // Strictly smaller than the support: the padding is dropped.
  EXPECT_EQ(outcome.report.core.core, (std::vector<int>{0, 1, 3}));
  EXPECT_TRUE(outcome.report.core.minimal);
  EXPECT_TRUE(outcome.report.all_certified);
  EXPECT_NEAR(outcome.report.core.gap, 100.0, 1e-6);
  ASSERT_TRUE(outcome.report.breakdown.available);
  EXPECT_TRUE(outcome.report.breakdown.certified);
}

TEST(ExplainWitness, FfdPaddedTinyItemIsDroppedFromCore) {
  heur::InstanceConfig config;
  config.heuristic = "ffd";
  config.items = 7;
  config.dims = 1;
  config.bins = 4;
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(config);

  // The classic FFD counterexample (gap of one extra bin) plus a tiny
  // 7th item that fits anywhere and cannot be load-bearing.
  const std::vector<double> witness = {0.45, 0.45, 0.26, 0.26,
                                       0.26, 0.26, 0.01};

  // The same run, twice: the second is the byte-reproducibility
  // regression (identical report text).
  std::string first_text;
  for (int run = 0; run < 2; ++run) {
    const explain::ExplainOutcome outcome =
        explain::explain_witness(*instance, witness, {});
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.report.support_size, 7);
    EXPECT_EQ(outcome.report.core.core,
              (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_TRUE(outcome.report.core.minimal);
    EXPECT_TRUE(outcome.report.all_certified);
    EXPECT_NEAR(outcome.report.core.gap, 1.0, 1e-9);
    ASSERT_TRUE(outcome.report.breakdown.available);
    const std::string text = explain::render_text(outcome.report);
    if (run == 0) {
      first_text = text;
    } else {
      EXPECT_EQ(text, first_text);
    }
  }
}

TEST(ExplainWitness, CorpusCoresAndProbeCountsArePinned) {
  // Every record of the gap-floor corpus, explained through
  // heur::make_instance with default options (seed 1). The cores and
  // probe counts are the ones the minimizer gave when it was pinned; a
  // change to the deletion order, the probe memo or a probe's gap shows
  // up here.
  struct Pin {
    std::vector<int> core;
    long probes;
  };
  const std::vector<Pin> pins = {
      {{0, 1, 3}, 4},
      {{0, 1, 3}, 4},
      {{0, 1, 2, 3, 4, 5}, 7},
      {{0, 1, 2, 3, 4, 5, 6, 7, 8}, 10},
      {{10, 20, 30, 40, 50, 60, 65, 75, 80, 85, 90, 95, 105}, 30},
      {{44, 45, 46, 54, 56, 74}, 37},
      {{11, 22, 88}, 8},
      {{0, 22, 33, 88}, 5},
      {{2, 4, 7, 8, 9, 16, 19}, 23},
  };
  const std::vector<runner::JobResult> records =
      runner::read_sweep_jsonl(METAOPT_WITNESS_CORPUS);
  ASSERT_EQ(records.size(), pins.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::unique_ptr<heur::HeuristicInstance> instance =
        heur::make_instance(runner::instance_config(records[i].spec));
    const explain::ExplainOutcome outcome = explain::explain_witness(
        *instance, records[i].result.volumes, {});
    ASSERT_TRUE(outcome.ok) << "job " << i << ": " << outcome.error;
    EXPECT_EQ(outcome.report.core.core, pins[i].core) << "job " << i;
    EXPECT_EQ(outcome.report.probes, pins[i].probes) << "job " << i;
    EXPECT_TRUE(outcome.report.core.minimal) << "job " << i;
    EXPECT_TRUE(outcome.report.all_certified) << "job " << i;
  }
}

TEST(ExplainWitness, UnknownStrategyIsAnError) {
  const FakeInstance instance(4, {0});
  explain::ExplainOptions options;
  options.strategy = "ddmin";
  const explain::ExplainOutcome outcome = explain::explain_witness(
      instance, std::vector<double>(4, 1.0), options);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("ddmin"), std::string::npos);
}

TEST(ExplainWitness, BelowThresholdReportsNothingToExplain) {
  const FakeInstance instance(4, {0, 1, 2, 3});
  explain::ExplainOptions options;
  options.min_gap_percent = 500.0;  // 500% of the normalizer: impossible
  const explain::ExplainOutcome outcome = explain::explain_witness(
      instance, std::vector<double>(4, 1.0), options);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("nothing to explain"), std::string::npos);
}

runner::JobResult make_record(int job, const std::string& heuristic,
                              const std::string& topology, double norm_gap) {
  runner::JobResult r;
  r.spec.id = job;
  r.spec.heuristic = runner::heuristic_from_string(heuristic);
  r.spec.topology = topology;
  r.spec.items = 6;
  r.spec.dims = 1;
  r.spec.bins = 4;
  r.status = runner::JobStatus::Ok;
  r.result.normalized_gap = norm_gap;
  r.result.gap = norm_gap * 10.0;
  r.result.volumes = {1.0};
  return r;
}

TEST(Cluster, GroupsByHeuristicAndAxis) {
  std::vector<runner::JobResult> records = {
      make_record(0, "dp", "fig1", 0.10),
      make_record(1, "dp", "fig1", 0.30),
      make_record(2, "dp", "b4", 0.05),
      make_record(3, "ffd", "fig1", 0.25),  // topology tag is meaningless
      make_record(4, "dp", "fig1", 0.30),   // ties rep with job 1
      make_record(5, "dp", "swan", 0.0),    // no gap: not a region
  };
  records[5].result.gap = 0.0;

  const std::vector<explain::Region> regions =
      explain::cluster_regions(records, 0.01);
  ASSERT_EQ(regions.size(), 3u);
  // Ordered by (heuristic, axis).
  EXPECT_EQ(regions[0].heuristic, "dp");
  EXPECT_EQ(regions[0].axis, "b4");
  EXPECT_EQ(regions[1].axis, "fig1");
  EXPECT_EQ(regions[2].heuristic, "ffd");
  EXPECT_EQ(regions[2].axis, "items=6,dims=1,bins=4");

  const explain::Region& fig1 = regions[1];
  EXPECT_EQ(fig1.jobs, 3);
  EXPECT_EQ(fig1.total_jobs, 3);
  EXPECT_DOUBLE_EQ(fig1.max_norm_gap, 0.30);
  // Representative: max norm gap, tie broken to the lowest job id.
  EXPECT_EQ(fig1.rep.spec.id, 1);

  EXPECT_EQ(explain::best_region(regions), 1);
}

TEST(Cluster, DeterministicAcrossInputOrder) {
  std::vector<runner::JobResult> records = {
      make_record(0, "dp", "fig1", 0.10),
      make_record(1, "pop", "b4", 0.20),
      make_record(2, "dp", "b4", 0.15),
  };
  const std::vector<explain::Region> a =
      explain::cluster_regions(records, 0.01);
  std::swap(records[0], records[2]);
  const std::vector<explain::Region> b =
      explain::cluster_regions(records, 0.01);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].heuristic, b[i].heuristic);
    EXPECT_EQ(a[i].axis, b[i].axis);
    EXPECT_EQ(a[i].rep.spec.id, b[i].rep.spec.id);
  }
}

}  // namespace
}  // namespace metaopt
