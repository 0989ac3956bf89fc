// Differential fuzz harness for the revised simplex core.
//
// Seeded random LPs (mixed <=/>=/== rows, negative right-hand sides,
// free/bounded/fixed variables, both objective senses) are solved three
// ways and must agree:
//   * the test-only dense-tableau solver (testref::solve_tableau, the
//     reference and the only independent check of Infeasible and
//     Unbounded verdicts),
//   * the cold revised simplex (via the warm-start ladder with no hint),
//   * the warm dual simplex re-solving a bound-tightened child from the
//     parent-optimal basis, against a tableau solve of the same child.
// Optimal solves additionally pass check::certify_lp with duals.
//
// A second harness drives hostile structured families — highly
// degenerate RHS (many rows active at one vertex), near-singular bases,
// singleton-heavy columns, totally-unimodular flow matrices — through
// the same differential: tableau vs cold revised at the root, and
// tableau vs a warm child re-solve from the root basis.
//
// A third harness covers the hypersparse kernels, which only run on
// forms of at least lp::kHyperMinRows rows: random two-commodity flow
// LPs just above that limit, cold roots and warm children checked
// against cold re-solves and the certifier (the tableau is too slow at
// this size).
//
// The root seed comes from METAOPT_FUZZ_SEED when set (CI rotates it per
// run and echoes it for replay); instances derive per-index streams with
// util::derive_seed, so one failing index reproduces in isolation.
// METAOPT_FUZZ_COUNT scales the instance counts (default 600 random +
// 4 x 150 hostile; sanitizer jobs dial it down).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/certify.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "lp/solution.h"
#include "obs/metrics.h"
#include "tableau_reference.h"
#include "util/rng.h"

namespace metaopt {
namespace {

using lp::Model;
using lp::ObjSense;
using lp::Solution;
using lp::SolveStatus;

constexpr double kObjTol = 1e-6;

std::uint64_t root_seed() {
  if (const char* env = std::getenv("METAOPT_FUZZ_SEED")) {
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    return static_cast<std::uint64_t>(parsed);
  }
  return 20260807;
}

/// Random-family instance count: METAOPT_FUZZ_COUNT when set (floor 10),
/// else 600. Hostile families run a quarter of this each.
int instance_count() {
  if (const char* env = std::getenv("METAOPT_FUZZ_COUNT")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<int>(std::max(10L, parsed));
  }
  return 600;
}

/// Random LP in the shapes the tree search produces: small, well-scaled,
/// heavy on bound structure.
Model make_random_lp(util::Rng& rng) {
  Model model;
  const int n = rng.uniform_int(1, 6);
  const int m = rng.uniform_int(0, 5);
  std::vector<lp::Var> vars;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-5.0, 5.0);
    const double width = rng.uniform(0.0, 6.0);
    double lb;
    double ub;
    switch (rng.uniform_int(0, 4)) {
      case 0: lb = lo; ub = lo + width; break;         // boxed
      case 1: lb = lo; ub = lp::kInf; break;           // lower only
      case 2: lb = -lp::kInf; ub = lo; break;          // upper only
      case 3: lb = -lp::kInf; ub = lp::kInf; break;    // free
      default: lb = lo; ub = lo; break;                // fixed
    }
    vars.push_back(model.add_var("x" + std::to_string(j), lb, ub));
  }
  // Reference point inside the boxes: rows built around it are mostly
  // satisfiable, so Optimal roots dominate while infeasible and
  // unbounded instances still occur (negative slack draws, free vars).
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double lo = std::isfinite(model.var(j).lb) ? model.var(j).lb : -8.0;
    const double hi = std::isfinite(model.var(j).ub) ? model.var(j).ub : 8.0;
    x0[j] = rng.uniform(lo, std::max(lo, hi));
  }
  for (int r = 0; r < m; ++r) {
    lp::LinExpr expr;
    double activity = 0.0;
    int terms = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.bernoulli(0.7)) continue;
      double coef = rng.uniform(-5.0, 5.0);
      if (std::abs(coef) < 0.05) coef = 0.5;  // keep rows non-degenerate
      expr.add_term(vars[j], coef);
      activity += coef * x0[j];
      ++terms;
    }
    if (terms == 0) {
      expr.add_term(vars[0], 1.0);
      activity = x0[0];
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:
        model.add_constraint(expr <= lp::LinExpr(activity +
                                                 rng.uniform(-1.0, 4.0)));
        break;
      case 1:
        model.add_constraint(expr >= lp::LinExpr(activity +
                                                 rng.uniform(-4.0, 1.0)));
        break;
      default:
        model.add_constraint(expr == lp::LinExpr(activity +
                                                 rng.uniform(-0.3, 0.3)));
        break;
    }
  }
  lp::LinExpr obj(rng.uniform(-2.0, 2.0));
  if (!rng.bernoulli(0.1)) {  // keep some pure-feasibility objectives
    for (int j = 0; j < n; ++j) obj.add_term(vars[j], rng.uniform(-3.0, 3.0));
  }
  model.set_objective(rng.bernoulli(0.5) ? ObjSense::Minimize
                                         : ObjSense::Maximize,
                      obj);
  return model;
}

void collect_bounds(const Model& model, std::vector<double>& lb,
                    std::vector<double>& ub) {
  lb.resize(model.num_vars());
  ub.resize(model.num_vars());
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
  }
}

/// Tightens one or two variable boxes the way branching does; biased
/// around the parent-optimal point so both still-feasible and
/// newly-infeasible children occur.
void tighten_child_bounds(util::Rng& rng, const Solution& parent,
                          std::vector<double>& lb, std::vector<double>& ub) {
  const int n = static_cast<int>(lb.size());
  const int tightenings = rng.uniform_int(1, 2);
  for (int t = 0; t < tightenings; ++t) {
    const int v = rng.uniform_int(0, n - 1);
    if (ub[v] - lb[v] <= 0.0) continue;  // already fixed
    const double x = parent.values.empty() ? 0.0 : parent.values[v];
    const double shift = rng.uniform(0.0, 2.0);
    if (rng.bernoulli(0.5)) {
      lb[v] = std::max(lb[v], x + (rng.bernoulli(0.3) ? shift : -shift));
      if (std::isfinite(ub[v])) lb[v] = std::min(lb[v], ub[v] + 1.0);
    } else {
      ub[v] = std::min(ub[v], x + (rng.bernoulli(0.3) ? -shift : shift));
      if (std::isfinite(lb[v])) ub[v] = std::max(ub[v], lb[v] - 1.0);
    }
    if (rng.bernoulli(0.25)) {  // branch-style fixing
      const double fix = rng.bernoulli(0.5) ? lb[v] : ub[v];
      if (std::isfinite(fix)) {
        lb[v] = fix;
        ub[v] = fix;
      }
    }
  }
}

// ---- hostile structured families ----
//
// Each generator targets one classic failure mode of simplex
// factorization / anti-degeneracy machinery. They are feasible-biased
// (rows built around an interior reference point) so the differential
// mostly compares Optimal answers, the hard case.

/// Highly degenerate RHS: every row exactly active at one reference
/// point, so the optimal vertex has far more tight rows than dimensions
/// and ties dominate every ratio test.
Model make_degenerate_rhs_lp(util::Rng& rng) {
  Model model;
  const int n = rng.uniform_int(2, 5);
  const int m = rng.uniform_int(4, 10);
  std::vector<lp::Var> vars;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    vars.push_back(model.add_var("x" + std::to_string(j), 0.0, 10.0));
    x0[j] = rng.uniform(1.0, 9.0);
  }
  for (int r = 0; r < m; ++r) {
    lp::LinExpr expr;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng.bernoulli(0.8)) continue;
      const double coef = rng.uniform(-4.0, 4.0);
      expr.add_term(vars[j], coef);
      activity += coef * x0[j];
    }
    // rhs == exact activity: the row is tight at x0 whichever sense.
    switch (rng.uniform_int(0, 2)) {
      case 0: model.add_constraint(expr <= lp::LinExpr(activity)); break;
      case 1: model.add_constraint(expr >= lp::LinExpr(activity)); break;
      default: model.add_constraint(expr == lp::LinExpr(activity)); break;
    }
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(vars[j], rng.uniform(-3.0, 3.0));
  model.set_objective(rng.bernoulli(0.5) ? ObjSense::Minimize
                                         : ObjSense::Maximize,
                      obj);
  return model;
}

/// Near-singular bases: each row is a scalar multiple of the previous
/// one plus noise at a magnitude stepping down to 1e-7, so candidate
/// bases range from comfortably factorizable to just above the pivot
/// tolerance. Exercises the Markowitz threshold and the singularity
/// bail-out path.
Model make_near_singular_lp(util::Rng& rng) {
  Model model;
  const int n = rng.uniform_int(3, 6);
  const int m = rng.uniform_int(3, 6);
  std::vector<lp::Var> vars;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    vars.push_back(model.add_var("x" + std::to_string(j), -5.0, 5.0));
    x0[j] = rng.uniform(-4.0, 4.0);
  }
  std::vector<double> base(n);
  for (int j = 0; j < n; ++j) base[j] = rng.uniform(-3.0, 3.0);
  for (int r = 0; r < m; ++r) {
    const double lambda = rng.uniform(0.5, 2.0);
    const double eps = std::pow(10.0, -rng.uniform(1.0, 7.0));
    lp::LinExpr expr;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      base[j] = lambda * base[j] + eps * rng.uniform(-1.0, 1.0);
      expr.add_term(vars[j], base[j]);
      activity += base[j] * x0[j];
    }
    if (rng.bernoulli(0.5)) {
      model.add_constraint(expr <= lp::LinExpr(activity +
                                               rng.uniform(0.0, 2.0)));
    } else {
      model.add_constraint(expr >= lp::LinExpr(activity -
                                               rng.uniform(0.0, 2.0)));
    }
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(vars[j], rng.uniform(-2.0, 2.0));
  model.set_objective(rng.bernoulli(0.5) ? ObjSense::Minimize
                                         : ObjSense::Maximize,
                      obj);
  return model;
}

/// Singleton-heavy columns: most structural columns touch exactly one
/// row (the shape presolve-reduced big-M models leave behind), plus a
/// couple of dense coupling columns. The sparse LU should pivot the
/// singletons essentially for free; the differential checks it does so
/// *correctly*.
Model make_singleton_heavy_lp(util::Rng& rng) {
  Model model;
  const int m = rng.uniform_int(2, 5);
  const int singles = rng.uniform_int(m, 2 * m);
  const int dense = rng.uniform_int(1, 2);
  std::vector<lp::Var> vars;
  for (int j = 0; j < singles + dense; ++j) {
    vars.push_back(model.add_var("x" + std::to_string(j), 0.0, 8.0));
  }
  std::vector<lp::LinExpr> rows(m);
  std::vector<double> activity(m, 0.0);
  for (int j = 0; j < singles; ++j) {
    const int r = rng.uniform_int(0, m - 1);
    const double coef = rng.uniform(0.5, 4.0) * (rng.bernoulli(0.5) ? 1 : -1);
    rows[r].add_term(vars[j], coef);
    activity[r] += coef * 2.0;  // reference point x0 = 2 everywhere
  }
  for (int j = singles; j < singles + dense; ++j) {
    for (int r = 0; r < m; ++r) {
      const double coef = rng.uniform(-3.0, 3.0);
      rows[r].add_term(vars[j], coef);
      activity[r] += coef * 2.0;
    }
  }
  for (int r = 0; r < m; ++r) {
    if (rng.bernoulli(0.5)) {
      model.add_constraint(rows[r] <=
                           lp::LinExpr(activity[r] + rng.uniform(0.0, 3.0)));
    } else {
      model.add_constraint(rows[r] >=
                           lp::LinExpr(activity[r] - rng.uniform(0.0, 3.0)));
    }
  }
  lp::LinExpr obj;
  for (std::size_t j = 0; j < vars.size(); ++j) {
    obj.add_term(vars[j], rng.uniform(-2.0, 2.0));
  }
  model.set_objective(rng.bernoulli(0.5) ? ObjSense::Minimize
                                         : ObjSense::Maximize,
                      obj);
  return model;
}

/// Totally-unimodular min-cost flow: node-arc incidence equality rows
/// (every entry 0/±1), a Hamiltonian cycle for guaranteed feasibility
/// plus random chords, one source/sink pair. Every basis is a spanning
/// tree with determinant ±1 — integral vertices, heavy degeneracy when
/// arc capacities tie.
Model make_unimodular_flow_lp(util::Rng& rng) {
  Model model;
  const int nodes = rng.uniform_int(3, 6);
  struct Arc { int from, to; };
  std::vector<Arc> arcs;
  for (int v = 0; v < nodes; ++v) arcs.push_back({v, (v + 1) % nodes});
  const int chords = rng.uniform_int(0, nodes);
  for (int c = 0; c < chords; ++c) {
    const int u = rng.uniform_int(0, nodes - 1);
    const int v = rng.uniform_int(0, nodes - 1);
    if (u != v) arcs.push_back({u, v});
  }
  std::vector<lp::Var> flow;
  lp::LinExpr obj;
  for (std::size_t a = 0; a < arcs.size(); ++a) {
    // Integer capacities on purpose: ties everywhere.
    flow.push_back(model.add_var("f" + std::to_string(a), 0.0,
                                 static_cast<double>(rng.uniform_int(3, 10))));
    obj.add_term(flow[a], static_cast<double>(rng.uniform_int(-5, 5)));
  }
  const int source = 0;
  const int sink = rng.uniform_int(1, nodes - 1);
  const double supply = static_cast<double>(rng.uniform_int(0, 3));
  for (int v = 0; v < nodes; ++v) {
    lp::LinExpr balance;
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      if (arcs[a].from == v) balance.add_term(flow[a], 1.0);
      if (arcs[a].to == v) balance.add_term(flow[a], -1.0);
    }
    const double rhs = v == source ? supply : (v == sink ? -supply : 0.0);
    model.add_constraint(balance == lp::LinExpr(rhs));
  }
  model.set_objective(ObjSense::Minimize, obj);
  return model;
}

/// Two-commodity min-cost flow on a ring of 300 nodes plus random
/// chords, arcs shared through capacity rows: 600 balance equalities and
/// one capacity row per arc, so the form has just over
/// lp::kHyperMinRows rows and network sparsity (two nonzeros per flow
/// column in the balance rows, one in its capacity row). Each commodity
/// ships from 8 sources to 8 sinks; the ring carries every supply, so
/// roots are feasible. Some costs are negative, so the optimum also
/// saturates negative cycles (every flow is boxed, so it stays bounded)
/// and the solves take hundreds of pivots.
Model make_two_commodity_flow_lp(util::Rng& rng) {
  Model model;
  constexpr int kNodes = 300;
  constexpr int kCommodities = 2;
  struct Arc { int from, to; };
  std::vector<Arc> arcs;
  for (int v = 0; v < kNodes; ++v) arcs.push_back({v, (v + 1) % kNodes});
  const int chords = rng.uniform_int(110, 200);
  while (static_cast<int>(arcs.size()) < kNodes + chords) {
    const int u = rng.uniform_int(0, kNodes - 1);
    const int v = rng.uniform_int(0, kNodes - 1);
    if (u != v) arcs.push_back({u, v});
  }
  const int num_arcs = static_cast<int>(arcs.size());
  std::vector<double> cap(num_arcs);
  for (double& c : cap) c = rng.uniform(10.0, 20.0);

  // flow[k * num_arcs + a]
  std::vector<lp::Var> flow;
  lp::LinExpr obj;
  for (int k = 0; k < kCommodities; ++k) {
    for (int a = 0; a < num_arcs; ++a) {
      flow.push_back(model.add_var(
          "f" + std::to_string(k) + "_" + std::to_string(a), 0.0, cap[a]));
      obj.add_term(flow.back(), rng.uniform(-2.0, 10.0));
    }
  }
  for (int k = 0; k < kCommodities; ++k) {
    // Net supply per node: 8 unit-ish sources and their sinks; the ring
    // can carry the total (at most 8) under every capacity (at least 10).
    std::vector<double> supply(kNodes, 0.0);
    for (int s = 0; s < 8; ++s) {
      const double amount = rng.uniform(0.1, 0.5);
      supply[rng.uniform_int(0, kNodes - 1)] += amount;
      supply[rng.uniform_int(0, kNodes - 1)] -= amount;
    }
    std::vector<lp::LinExpr> balance(kNodes);
    for (int a = 0; a < num_arcs; ++a) {
      balance[arcs[a].from].add_term(flow[k * num_arcs + a], 1.0);
      balance[arcs[a].to].add_term(flow[k * num_arcs + a], -1.0);
    }
    for (int v = 0; v < kNodes; ++v) {
      model.add_constraint(balance[v] == lp::LinExpr(supply[v]));
    }
  }
  for (int a = 0; a < num_arcs; ++a) {
    lp::LinExpr shared;
    for (int k = 0; k < kCommodities; ++k) {
      shared.add_term(flow[k * num_arcs + a], 1.0);
    }
    model.add_constraint(shared <= lp::LinExpr(cap[a]));
  }
  model.set_objective(ObjSense::Minimize, obj);
  return model;
}

/// Statuses that must match across solver paths. IterationLimit /
/// TimeLimit never trigger at these sizes; anything else is a bug.
bool terminal(SolveStatus s) {
  return s == SolveStatus::Optimal || s == SolveStatus::Infeasible ||
         s == SolveStatus::Unbounded;
}

void expect_same_answer(const Solution& got, const Solution& ref,
                        const std::string& what) {
  ASSERT_TRUE(terminal(ref.status))
      << what << ": reference not terminal: " << lp::to_string(ref.status);
  ASSERT_TRUE(terminal(got.status))
      << what << ": not terminal: " << lp::to_string(got.status);
  ASSERT_EQ(got.status, ref.status)
      << what << ": " << lp::to_string(got.status) << " vs reference "
      << lp::to_string(ref.status);
  if (ref.status == SolveStatus::Optimal) {
    const double scale = std::max(1.0, std::abs(ref.objective));
    EXPECT_NEAR(got.objective, ref.objective, kObjTol * scale) << what;
  }
}

void certify_optimal(const Model& model, const Solution& sol,
                     const std::vector<double>& lb,
                     const std::vector<double>& ub, const std::string& what) {
  if (sol.status != SolveStatus::Optimal) return;
  const check::Certificate cert = check::certify_lp(model, sol, {}, &lb, &ub);
  EXPECT_TRUE(cert.ok) << what << ": " << cert.to_string();
}

TEST(SimplexFuzz, WarmAndColdAgreeWithTableauAndCertifier) {
  const std::uint64_t seed = root_seed();
  // Echoed so a CI failure line carries everything needed to replay.
  std::printf("[simplex_fuzz] root seed = %llu\n",
              static_cast<unsigned long long>(seed));

  lp::SimplexOptions opt;
  opt.want_duals = true;
  opt.certify = false;  // the test certifies explicitly, with messages

  int optimal_roots = 0;
  int warm_dual_answers = 0;
  int warm_attempts = 0;

  const int kInstances = instance_count();
  for (int i = 0; i < kInstances; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i) + " (root seed " +
                 std::to_string(seed) + ")");
    util::Rng rng(util::derive_seed(seed, static_cast<std::uint64_t>(i)));
    const Model model = make_random_lp(rng);
    std::vector<double> lb, ub;
    collect_bounds(model, lb, ub);

    const lp::SimplexSolver solver(opt);

    // Reference: dense tableau.
    const Solution ref = testref::solve_tableau(model, lb, ub, opt);
    ASSERT_TRUE(terminal(ref.status));
    certify_optimal(model, ref, lb, ub, "tableau root");

    // Cold revised via the ladder (no hint): no rung below it, so it
    // must answer every instance itself.
    lp::WarmStartContext warm(model);
    const Solution cold = solver.solve_with_bounds(model, lb, ub, warm);
    expect_same_answer(cold, ref, "cold revised vs tableau");
    certify_optimal(model, cold, lb, ub, "cold revised root");
    std::shared_ptr<const lp::Basis> root_basis = warm.take_result();

    if (cold.status != SolveStatus::Optimal) continue;
    ++optimal_roots;
    ASSERT_NE(root_basis, nullptr);

    // Child: tighten bounds, re-solve warm from the parent basis and
    // compare against an independent tableau solve of the same child.
    std::vector<double> clb = lb, cub = ub;
    tighten_child_bounds(rng, cold, clb, cub);
    bool empty_box = false;
    for (std::size_t v = 0; v < clb.size(); ++v) {
      if (clb[v] > cub[v]) empty_box = true;
    }
    if (empty_box) continue;

    const Solution child_ref = testref::solve_tableau(model, clb, cub, opt);
    ASSERT_TRUE(terminal(child_ref.status));

    warm.hint = root_basis.get();
    ++warm_attempts;
    const Solution child_warm = solver.solve_with_bounds(model, clb, cub, warm);
    if (warm.last_path == lp::WarmStartContext::Path::WarmDual) {
      ++warm_dual_answers;
    }
    expect_same_answer(child_warm, child_ref, "warm child vs tableau child");
    certify_optimal(model, child_warm, clb, cub, "warm child");

    // Sibling: a second child warmed from the SAME parent basis through
    // the same context. The first child's pivots mutated the engine's
    // cached factorization, so this exercises the cache-staleness path
    // branch-and-bound hits on every sibling pair.
    std::vector<double> slb = lb, sub = ub;
    tighten_child_bounds(rng, cold, slb, sub);
    bool sibling_empty = false;
    for (std::size_t v = 0; v < slb.size(); ++v) {
      if (slb[v] > sub[v]) sibling_empty = true;
    }
    if (sibling_empty) continue;
    const Solution sib_ref = testref::solve_tableau(model, slb, sub, opt);
    ASSERT_TRUE(terminal(sib_ref.status));
    warm.hint = root_basis.get();
    ++warm_attempts;
    const Solution sib_warm = solver.solve_with_bounds(model, slb, sub, warm);
    if (warm.last_path == lp::WarmStartContext::Path::WarmDual) {
      ++warm_dual_answers;
    }
    expect_same_answer(sib_warm, sib_ref,
                       "sibling warm child vs tableau child");
    certify_optimal(model, sib_warm, slb, sub, "sibling warm child");
  }

  std::printf(
      "[simplex_fuzz] %d instances: %d optimal roots, %d/%d warm-dual "
      "answers\n",
      kInstances, optimal_roots, warm_dual_answers, warm_attempts);

  ASSERT_GT(warm_attempts, kInstances / 4);
  EXPECT_GE(warm_dual_answers, (warm_attempts * 3) / 4);
}

TEST(SimplexFuzz, ConcurrentWarmSolvesFromSharedBasisBitIdentical) {
  // The parallel-B&B sharing contract, at the LP layer: sibling workers
  // warm-solve the same child box from the SAME shared parent basis,
  // each through its own WarmStartContext, concurrently. Every worker's
  // answer must be bit-identical (status, objective, values) to a
  // serial warm solve — racing engines must not perturb each other and
  // the factor cache must not make any solve path-dependent.
  const std::uint64_t seed = root_seed();
  lp::SimplexOptions opt;
  opt.certify = false;

  constexpr int kConcurrentInstances = 60;
  constexpr int kWorkers = 4;
  int exercised = 0;
  for (int i = 0; i < kConcurrentInstances; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i) + " (root seed " +
                 std::to_string(seed) + ")");
    util::Rng rng(util::derive_seed(seed, 100000 + i));
    const Model model = make_random_lp(rng);
    std::vector<double> lb, ub;
    collect_bounds(model, lb, ub);
    const lp::SimplexSolver solver(opt);

    lp::WarmStartContext parent(model);
    const Solution root = solver.solve_with_bounds(model, lb, ub, parent);
    const std::shared_ptr<const lp::Basis> basis = parent.take_result();
    if (root.status != SolveStatus::Optimal || basis == nullptr) continue;

    std::vector<double> clb = lb, cub = ub;
    tighten_child_bounds(rng, root, clb, cub);
    bool empty_box = false;
    for (std::size_t v = 0; v < clb.size(); ++v) {
      if (clb[v] > cub[v]) empty_box = true;
    }
    if (empty_box) continue;
    ++exercised;

    // Serial reference for the child, from the shared basis.
    lp::WarmStartContext serial(model);
    serial.hint = basis.get();
    const Solution ref = solver.solve_with_bounds(model, clb, cub, serial);
    ASSERT_TRUE(terminal(ref.status));

    std::vector<Solution> results(kWorkers);
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        lp::WarmStartContext ctx(model);
        ctx.hint = basis.get();
        results[w] = solver.solve_with_bounds(model, clb, cub, ctx);
      });
    }
    for (std::thread& t : workers) t.join();

    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(results[w].status, ref.status) << "worker " << w;
      if (ref.status != SolveStatus::Optimal) continue;
      EXPECT_EQ(results[w].objective, ref.objective) << "worker " << w;
      ASSERT_EQ(results[w].values.size(), ref.values.size()) << "worker " << w;
      for (std::size_t v = 0; v < ref.values.size(); ++v) {
        EXPECT_EQ(results[w].values[v], ref.values[v])
            << "worker " << w << " var " << v;
      }
    }
  }
  // The family is Optimal-heavy; if the loop stopped exercising the
  // concurrent path the test would silently go vacuous.
  EXPECT_GT(exercised, kConcurrentInstances / 3);
}

TEST(SimplexFuzz, HostileFamiliesRevisedVsTableauDifferential) {
  const std::uint64_t seed = root_seed();
  std::printf("[simplex_fuzz] hostile root seed = %llu\n",
              static_cast<unsigned long long>(seed));
  lp::SimplexOptions opt;
  opt.want_duals = true;
  opt.certify = false;
  const lp::SimplexSolver solver(opt);

  struct Family {
    const char* name;
    Model (*make)(util::Rng&);
  };
  const Family families[] = {
      {"degenerate_rhs", make_degenerate_rhs_lp},
      {"near_singular", make_near_singular_lp},
      {"singleton_heavy", make_singleton_heavy_lp},
      {"unimodular_flow", make_unimodular_flow_lp},
  };
  const int per_family = std::max(instance_count() / 4, 10);

  int optimal_roots = 0;
  int warm_children = 0;
  for (std::size_t fi = 0; fi < std::size(families); ++fi) {
    const Family& family = families[fi];
    for (int i = 0; i < per_family; ++i) {
      SCOPED_TRACE(std::string(family.name) + " instance " +
                   std::to_string(i) + " (root seed " + std::to_string(seed) +
                   ")");
      util::Rng rng(util::derive_seed(
          seed, 200000 + fi * 1000000 + static_cast<std::uint64_t>(i)));
      const Model model = family.make(rng);
      std::vector<double> lb, ub;
      collect_bounds(model, lb, ub);

      // Root differential: the tableau is the reference, the cold
      // revised core must reproduce it.
      const Solution ref = testref::solve_tableau(model, lb, ub, opt);
      ASSERT_TRUE(terminal(ref.status));
      certify_optimal(model, ref, lb, ub, "tableau root");

      lp::WarmStartContext ctx(model);
      const Solution cold = solver.solve_with_bounds(model, lb, ub, ctx);
      expect_same_answer(cold, ref, "cold revised vs tableau");
      certify_optimal(model, cold, lb, ub, "cold revised root");

      const std::shared_ptr<const lp::Basis> basis = ctx.take_result();
      if (cold.status != SolveStatus::Optimal) continue;
      ++optimal_roots;
      ASSERT_NE(basis, nullptr);

      // Warm child re-solve from the root basis against an independent
      // tableau solve of the child.
      std::vector<double> clb = lb, cub = ub;
      tighten_child_bounds(rng, cold, clb, cub);
      bool empty_box = false;
      for (std::size_t v = 0; v < clb.size(); ++v) {
        if (clb[v] > cub[v]) empty_box = true;
      }
      if (empty_box) continue;

      const Solution child_ref = testref::solve_tableau(model, clb, cub, opt);
      ASSERT_TRUE(terminal(child_ref.status));

      ctx.hint = basis.get();
      const Solution child =
          solver.solve_with_bounds(model, clb, cub, ctx);
      expect_same_answer(child, child_ref, "warm child vs tableau child");
      certify_optimal(model, child, clb, cub, "warm child");
      ++warm_children;
    }
  }
  std::printf(
      "[simplex_fuzz] hostile: %d optimal roots, %d warm children over %d "
      "instances/family\n",
      optimal_roots, warm_children, per_family);
  // Feasible-biased generators: if Optimal stops dominating, the
  // families regressed into vacuous coverage.
  const int total =
      per_family * static_cast<int>(std::size(families));
  EXPECT_GT(optimal_roots, total / 3);
  EXPECT_GT(warm_children, total / 6);
}

TEST(SimplexFuzz, FlowLpsAboveTheHypersparseRowLimitWarmMatchesCold) {
  // Forms of at least lp::kHyperMinRows rows run the sparse ftran and
  // the row-wise dual pivot row, and their primal pivots update y and
  // the pricing in place. Each root is solved cold; each of two
  // children per root is solved warm from the root basis and again
  // cold from scratch, and the two must agree. Every optimum passes
  // the certifier.
  const std::uint64_t seed = root_seed();
  lp::SimplexOptions opt;
  opt.want_duals = true;
  opt.certify = false;
  const lp::SimplexSolver solver(opt);

  constexpr int kInstances = 4;
  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  int warm_dual_answers = 0;
  int children = 0;
  for (int i = 0; i < kInstances; ++i) {
    SCOPED_TRACE("flow instance " + std::to_string(i) + " (root seed " +
                 std::to_string(seed) + ")");
    util::Rng rng(util::derive_seed(seed, 300000 + i));
    const Model model = make_two_commodity_flow_lp(rng);
    ASSERT_GE(model.num_constraints(), lp::kHyperMinRows);
    std::vector<double> lb, ub;
    collect_bounds(model, lb, ub);

    lp::WarmStartContext warm(model);
    ASSERT_TRUE(warm.form.has_rows());
    const Solution root = solver.solve_with_bounds(model, lb, ub, warm);
    ASSERT_EQ(root.status, SolveStatus::Optimal);
    std::printf("[simplex_fuzz] flow instance %d: %d rows, root %ld pivots\n",
                i, model.num_constraints(), root.iterations);
    certify_optimal(model, root, lb, ub, "cold root");
    const std::shared_ptr<const lp::Basis> basis = warm.take_result();
    ASSERT_NE(basis, nullptr);

    for (int c = 0; c < 2; ++c) {
      std::vector<double> clb = lb, cub = ub;
      tighten_child_bounds(rng, root, clb, cub);
      bool empty_box = false;
      for (std::size_t v = 0; v < clb.size(); ++v) {
        if (clb[v] > cub[v]) empty_box = true;
      }
      if (empty_box) continue;
      ++children;

      warm.hint = basis.get();
      const Solution child = solver.solve_with_bounds(model, clb, cub, warm);
      if (warm.last_path == lp::WarmStartContext::Path::WarmDual) {
        ++warm_dual_answers;
      }
      lp::WarmStartContext cold_ctx(model);
      const Solution cold = solver.solve_with_bounds(model, clb, cub, cold_ctx);
      expect_same_answer(child, cold, "warm child vs cold child");
      certify_optimal(model, child, clb, cub, "warm child");
      certify_optimal(model, cold, clb, cub, "cold child");
    }
  }
  EXPECT_GE(children, kInstances);
  EXPECT_GE(warm_dual_answers, (children * 3) / 4);

  // The cold solves took the in-place primal pricing path.
  const obs::MetricsSnapshot moved = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  for (const char* name :
       {"simplex.primal_y_updates", "simplex.primal_y_reach",
        "simplex.primal_repriced", "simplex.primal_full_prices"}) {
    const obs::MetricValue* m = moved.find(name);
    EXPECT_TRUE(m != nullptr && m->value > 0.0) << name;
  }
}

}  // namespace
}  // namespace metaopt
