// Tests for the bound-propagation presolve, and for its node replay:
// on random node boxes of the real single-shot models, presolve_replay
// must return the same bits as presolve_into.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binpack/encoding.h"
#include "domains/te_instances.h"
#include "find_te_model.h"
#include "heur/instance.h"
#include "kkt/kkt_rewriter.h"
#include "lp/presolve.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "util/rng.h"

namespace metaopt::lp {
namespace {

TEST(Presolve, TightensFromSingletonRow) {
  Model m;
  Var x = m.add_var("x", 0.0, 100.0);
  m.add_constraint(LinExpr(x) <= LinExpr(7.0));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.ub[x.id], 7.0, 1e-9);
}

TEST(Presolve, DetectsInfeasibleRow) {
  Model m;
  Var x = m.add_var("x", 0.0, 1.0);
  Var y = m.add_var("y", 0.0, 1.0);
  m.add_constraint(x + y >= LinExpr(3.0));  // max activity 2 < 3
  EXPECT_TRUE(presolve(m).infeasible);
}

TEST(Presolve, FlagsRedundantRow) {
  Model m;
  Var x = m.add_var("x", 0.0, 1.0);
  Var y = m.add_var("y", 0.0, 1.0);
  ConId c = m.add_constraint(x + y <= LinExpr(5.0));  // max activity 2
  const PresolveResult r = presolve(m);
  EXPECT_TRUE(r.redundant_rows[c]);
}

TEST(Presolve, PropagatesThroughBigMIndicator) {
  // b fixed to 1 forces x <= 0 through the indicator row.
  Model m;
  Var x = m.add_var("x", 0.0, 50.0);
  Var b = m.add_binary("b");
  m.add_constraint(LinExpr(x) + 50.0 * LinExpr(b) <= LinExpr(50.0));
  std::vector<double> lb{0.0, 1.0};  // node fixed b = 1
  std::vector<double> ub{50.0, 1.0};
  const PresolveResult r = presolve(m, &lb, &ub);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.ub[x.id], 0.0, 1e-9);
}

TEST(Presolve, RoundsFractionalBinaryBounds) {
  Model m;
  Var b = m.add_binary("b");
  Var x = m.add_var("x", 0.0, 1.0);
  // 2b >= 1.2 forces b >= 0.6 -> rounds to b = 1.
  m.add_constraint(2.0 * LinExpr(b) + 0.0 * x >= LinExpr(1.2));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.lb[b.id], 1.0, 1e-9);
}

TEST(Presolve, EqualityPropagatesBothDirections) {
  Model m;
  Var x = m.add_var("x", 0.0, 10.0);
  Var y = m.add_var("y", 4.0, 4.0);
  m.add_constraint(x + y == LinExpr(6.0));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(r.lb[x.id], 2.0, 1e-9);
  EXPECT_NEAR(r.ub[x.id], 2.0, 1e-9);
}

TEST(Presolve, LeavesInfiniteActivitiesAlone) {
  Model m;
  Var x = m.add_var("x", -kInf, kInf);
  Var y = m.add_var("y", -kInf, kInf);
  m.add_constraint(x + y <= LinExpr(5.0));
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_TRUE(std::isinf(r.ub[x.id]));
}

class PresolvePreservesOptimumTest : public ::testing::TestWithParam<int> {};

TEST_P(PresolvePreservesOptimumTest, SameLpOptimum) {
  // Presolved bounds must not change the LP optimum.
  util::Rng rng(700 + GetParam());
  Model m;
  const int n = rng.uniform_int(2, 5);
  std::vector<Var> xs;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.add_var("x" + std::to_string(j), 0.0,
                           rng.uniform(1.0, 5.0)));
  }
  for (int r = 0; r < rng.uniform_int(1, 4); ++r) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e.add_term(xs[j], rng.uniform(-1.0, 2.0));
    m.add_constraint(e <= LinExpr(rng.uniform(0.5, 4.0)));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(xs[j], rng.uniform(0.0, 2.0));
  m.set_objective(ObjSense::Maximize, obj);

  const Solution plain = SimplexSolver().solve(m);
  const PresolveResult pre = presolve(m);
  ASSERT_FALSE(pre.infeasible);
  WarmStartContext ctx(m);
  const Solution tightened =
      SimplexSolver().solve_with_bounds(m, pre.lb, pre.ub, ctx);
  ASSERT_EQ(plain.status, SolveStatus::Optimal);
  ASSERT_EQ(tightened.status, SolveStatus::Optimal);
  EXPECT_NEAR(plain.objective, tightened.objective, 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolvePreservesOptimumTest,
                         ::testing::Range(1, 31));

TEST(Presolve, BnbKeepsTheHandDerivedOptimum) {
  Model m;
  Var a = m.add_binary("a");
  Var b = m.add_binary("b");
  Var x = m.add_var("x", 0.0, 10.0);
  m.add_constraint(LinExpr(x) + 10.0 * LinExpr(a) <= LinExpr(10.0));
  m.add_constraint(a + b >= LinExpr(1.0));
  m.set_objective(ObjSense::Maximize, x + 3.0 * LinExpr(a) + LinExpr(b));
  // By hand: a = 1 forces x = 0, worth at most 3 + 1 = 4; a = 0 forces
  // b = 1 and leaves x = 10, worth 11. Node presolve (always on) must
  // not cut that optimum away.
  const auto sol = mip::BranchAndBound().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 11.0, 1e-7);
  EXPECT_NEAR(sol.values[x.id], 10.0, 1e-7);
  EXPECT_NEAR(sol.values[a.id], 0.0, 1e-7);
  EXPECT_NEAR(sol.values[b.id], 1.0, 1e-7);
}

// ---- the node replay ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// presolve_replay's result against presolve_into's, bit for bit.
void expect_same_result(const PresolveResult& want, const PresolveResult& got,
                        const std::string& what) {
  ASSERT_EQ(got.infeasible, want.infeasible) << what;
  ASSERT_EQ(got.rounds, want.rounds) << what;
  ASSERT_EQ(got.tightenings, want.tightenings) << what;
  ASSERT_EQ(got.redundant_rows, want.redundant_rows) << what;
  ASSERT_EQ(got.lb.size(), want.lb.size()) << what;
  for (std::size_t v = 0; v < want.lb.size(); ++v) {
    ASSERT_EQ(bits(got.lb[v]), bits(want.lb[v])) << what << " lb of " << v;
    ASSERT_EQ(bits(got.ub[v]), bits(want.ub[v])) << what << " ub of " << v;
  }
}

/// Records the root's presolve from the model's bounds, then replays
/// `boxes` random node boxes against it. A box fixes a few random
/// binaries to 0 or 1 and zeroes one side of a few random
/// complementarity pairs, the bound changes branching makes. One result
/// is reused across boxes, as a branch-and-bound worker reuses it.
/// Returns how many boxes presolve found infeasible.
int expect_replay_matches(const Model& model, int boxes, std::uint64_t seed) {
  const int n = model.num_vars();
  std::vector<double> lb0(n), ub0(n);
  std::vector<VarId> binaries;
  for (VarId v = 0; v < n; ++v) {
    lb0[v] = model.var(v).lb;
    ub0[v] = model.var(v).ub;
    if (model.var(v).kind == VarKind::Binary) binaries.push_back(v);
  }
  const auto& pairs = model.complementarities();
  PresolveResult root;
  PresolveTrace trace;
  presolve_record(model, root, trace);
  EXPECT_TRUE(trace.valid);
  PresolveResult fresh;
  presolve_into(model, &lb0, &ub0, fresh);
  expect_same_result(fresh, root, "root");

  util::Rng rng(seed);
  PresolveResult replayed;
  int infeasible = 0;
  for (int box = 0; box < boxes; ++box) {
    std::vector<double> lb = lb0, ub = ub0;
    const int fixes = rng.uniform_int(1, 12);
    for (int f = 0; f < fixes; ++f) {
      if (!binaries.empty() && (pairs.empty() || rng.uniform(0.0, 1.0) < 0.5)) {
        const VarId v = binaries[rng.uniform_int(
            0, static_cast<int>(binaries.size()) - 1)];
        lb[v] = ub[v] = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 1.0;
      } else if (!pairs.empty()) {
        const auto& pair =
            pairs[rng.uniform_int(0, static_cast<int>(pairs.size()) - 1)];
        ub[rng.uniform(0.0, 1.0) < 0.5 ? pair.a : pair.b] = 0.0;
      }
    }
    presolve_into(model, &lb, &ub, fresh);
    presolve_replay(model, trace, lb, ub, replayed);
    expect_same_result(fresh, replayed, "box " + std::to_string(box));
    if (fresh.infeasible) ++infeasible;
  }
  return infeasible;
}

Model find_te_model(const heur::InstanceConfig& config) {
  const std::unique_ptr<heur::HeuristicInstance> inst =
      heur::make_instance(config);
  return testmodels::find_te_model(
      dynamic_cast<const domains::TeInstanceBase&>(*inst));
}

TEST(PresolveReplay, MatchesFullPresolveOnFindTeDp) {
  heur::InstanceConfig dp;
  dp.heuristic = "dp";
  dp.topology = "abilene";
  dp.threshold = 50.0;
  const Model model = find_te_model(dp);
  ASSERT_GT(model.complementarities().size(), 0u);
  expect_replay_matches(model, 40, 11);
}

TEST(PresolveReplay, MatchesFullPresolveOnFindTePop) {
  heur::InstanceConfig pop;
  pop.heuristic = "pop";
  pop.topology = "b4";
  pop.support = 12;
  pop.partitions = 2;
  pop.pop_seeds = {101, 102, 103};
  expect_replay_matches(find_te_model(pop), 40, 12);
}

TEST(PresolveReplay, MatchesFullPresolveOnFig1Dp) {
  heur::InstanceConfig dp;
  dp.heuristic = "dp";
  dp.topology = "fig1";
  dp.threshold = 50.0;
  dp.leader_ub = 200.0;
  // fig1 is small enough that random fixings often contradict: both
  // outcomes must match.
  const int infeasible = expect_replay_matches(find_te_model(dp), 200, 13);
  EXPECT_GT(infeasible, 0);
  EXPECT_LT(infeasible, 200);
}

TEST(PresolveReplay, MatchesFullPresolveOnFfd) {
  binpack::BinPackConfig config;
  config.items = 6;
  Model model;
  std::vector<Var> sizes;
  for (int i = 0; i < config.items; ++i) {
    sizes.push_back(model.add_var("s" + std::to_string(i), 0.0, 1.0));
  }
  const binpack::FfdEncoding enc = binpack::build_ffd(model, sizes, config);
  const kkt::KktArtifacts opt = kkt::emit_kkt(model, enc.inner, "opt.");
  model.set_objective(ObjSense::Maximize, enc.bins_used - opt.objective_expr);
  expect_replay_matches(model, 200, 14);
}

TEST(PresolveReplay, InvalidTraceRunsFullPresolve) {
  Model m;
  Var x = m.add_var("x", 0.0, 100.0);
  Var b = m.add_binary("b");
  m.add_constraint(LinExpr(x) + 100.0 * LinExpr(b) <= LinExpr(100.0));
  const std::vector<double> lb{0.0, 1.0}, ub{100.0, 1.0};
  PresolveResult want, got;
  presolve_into(m, &lb, &ub, want);
  presolve_replay(m, PresolveTrace{}, lb, ub, got);
  expect_same_result(want, got, "no trace");
  EXPECT_EQ(got.ub[x.id], 0.0);
}

}  // namespace
}  // namespace metaopt::lp
