// The gap-floor corpus: certified adversarial witnesses that every
// solver change must keep finding.
//
// tests/data/witnesses.jsonl holds sweep records (runner::to_json, read
// back with runner::from_json). In each record `volumes` is the witness
// input and `gap` its exact gap under the instance's oracle; two extra
// keys, which from_json ignores, give the fixed-work find that found it:
// `node_budget` (B&B nodes, one thread, seeding off) and `floor`, the
// gap that find reached when the record was written. The replay checks
// both halves:
//   * every witness re-scores through the instance's oracle to its
//     recorded gap, within tol::kFeasTol relative;
//   * every fixed-node find, re-run with certification, returns a
//     certified gap at or above its floor.
//
// Rules. A gap or floor moves only in a change that says why in
// CHANGES.md, and a floor never moves down to make a change pass. A
// change that legitimately changes a golden tree (find_golden_test) may
// re-pin golden values only while every floor here still holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/adversarial.h"
#include "domains/te_instances.h"
#include "heur/instance.h"
#include "runner/sweep_runner.h"
#include "util/jsonl.h"
#include "util/tolerances.h"

namespace metaopt {
namespace {

struct Witness {
  runner::JobResult record;
  long node_budget = 0;
  double floor = 0.0;
};

std::vector<Witness> load_corpus() {
  std::ifstream in(METAOPT_WITNESS_CORPUS);
  EXPECT_TRUE(in) << "cannot open " << METAOPT_WITNESS_CORPUS;
  std::vector<Witness> corpus;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonValue v = util::parse_json(line);
    Witness w;
    w.record = runner::from_json(line);
    w.node_budget = static_cast<long>(v.number_or("node_budget", 0.0));
    w.floor = v.number_or("floor", 0.0);
    corpus.push_back(std::move(w));
  }
  return corpus;
}

/// |a - b| within tol::kFeasTol, relative to the gap's size.
bool within_feas_tol(double a, double b) {
  return std::abs(a - b) <= tol::kFeasTol * std::max(1.0, std::abs(b));
}

std::string label(const runner::JobSpec& s) {
  return "job " + std::to_string(s.id) + " (" + s.topology + " " +
         runner::to_string(s.heuristic) + ")";
}

/// The record's find at its node budget: one B&B thread, seeding off,
/// certification on. TE finds stop at the budget through
/// core::AdversarialGapFinder (heur::FindOptions has no node budget);
/// bin-packing finds prove, and must do so within the budget.
heur::GapFindResult fixed_node_find(const Witness& w,
                                    const heur::HeuristicInstance& inst) {
  const runner::JobSpec& s = w.record.spec;
  const auto* te = dynamic_cast<const domains::TeInstanceBase*>(&inst);
  if (te == nullptr) {
    heur::FindOptions options;
    options.budget_seconds = 3600.0;  // a safety cap; the B&B proves first
    options.seed_search_seconds = 0.0;
    options.certify = true;
    return inst.find_gap(options);
  }
  core::AdversarialOptions options;
  options.demand_ub = te->leader_ub();
  options.pair_mask = te->pair_mask();
  options.mip.max_nodes = w.node_budget;
  options.mip.time_limit_seconds = 3600.0;  // a safety cap, never the stop
  options.mip.threads = 1;
  options.mip.certify = true;
  options.seed_search_seconds = 0.0;
  const core::AdversarialGapFinder finder(te->topology(), te->paths());
  if (const auto* pop = dynamic_cast<const domains::TePopInstance*>(te)) {
    te::PopConfig config;
    config.num_partitions = s.num_partitions;
    return finder.find_pop_gap(config, pop->seeds(), options);
  }
  te::DpConfig dp;
  dp.threshold = s.threshold;
  return finder.find_dp_gap(dp, options);
}

TEST(WitnessCorpus, CoversEveryFamily) {
  const std::vector<Witness> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  const auto has = [&](const std::string& topology, runner::Heuristic h) {
    return std::any_of(corpus.begin(), corpus.end(), [&](const Witness& w) {
      return w.record.spec.topology == topology && w.record.spec.heuristic == h;
    });
  };
  EXPECT_TRUE(has("fig1", runner::Heuristic::Dp));
  EXPECT_TRUE(has("fig1", runner::Heuristic::Ffd));
  EXPECT_TRUE(has("abilene", runner::Heuristic::Dp));
  EXPECT_TRUE(has("b4", runner::Heuristic::Pop));
  EXPECT_TRUE(std::any_of(corpus.begin(), corpus.end(), [](const Witness& w) {
    return w.record.spec.topology.rfind("circulant:", 0) == 0;
  }));
  for (const Witness& w : corpus) {
    SCOPED_TRACE(label(w.record.spec));
    EXPECT_GT(w.node_budget, 0);
    EXPECT_TRUE(w.record.result.has_solution());
    EXPECT_TRUE(w.record.result.certified);
    // The witness is at least as good as the find's floor.
    EXPECT_GE(w.record.result.gap, w.floor - tol::kFeasTol * std::max(1.0, w.floor));
  }
}

TEST(WitnessCorpus, WitnessesRescoreToTheirGap) {
  for (const Witness& w : load_corpus()) {
    SCOPED_TRACE(label(w.record.spec));
    const std::unique_ptr<heur::HeuristicInstance> inst =
        heur::make_instance(runner::instance_config(w.record.spec));
    const double gap = inst->make_oracle()->evaluate(w.record.result.volumes).gap();
    EXPECT_TRUE(within_feas_tol(gap, w.record.result.gap))
        << "re-scored " << gap << ", recorded " << w.record.result.gap;
  }
}

TEST(WitnessCorpus, FixedNodeFindsKeepTheirFloor) {
  for (const Witness& w : load_corpus()) {
    SCOPED_TRACE(label(w.record.spec));
    const std::unique_ptr<heur::HeuristicInstance> inst =
        heur::make_instance(runner::instance_config(w.record.spec));
    const heur::GapFindResult r = fixed_node_find(w, *inst);
    ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
                r.status == lp::SolveStatus::Feasible)
        << lp::to_string(r.status);
    EXPECT_LE(r.nodes, w.node_budget);
    EXPECT_TRUE(r.certified);
    EXPECT_GE(r.gap, w.floor - tol::kFeasTol * std::max(1.0, w.floor))
        << "the find reached " << r.gap << " in " << r.nodes
        << " nodes; its floor is " << w.floor;
  }
}

}  // namespace
}  // namespace metaopt
