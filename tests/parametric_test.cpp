// Tests for kkt::InnerLp, the primal heuristic's parametric inner solve.
//
// On the followers of four single-shot models (fig1 DP, masked Abilene
// DP, B4 POP, 6-item FFD) and 16 seeded outer points each, an InnerLp
// solve must agree with the reference it replaced: the inner problem
// with the outer values substituted into a fresh model, solved by the
// test-only dense tableau (tests/support). Its solves must be pure:
// bit-identical serially, in reverse and from 4 threads, each arm on
// InnerLps of its own, and against a fresh InnerLp's first answer. Its
// answer cache must return exactly what a fresh InnerLp solves, keep
// followers and outer values apart, and store Optimal answers only.
// Solves must be certified when asked. Through the single-shot driver,
// the run's LP options must reach the inner solves, and a traced find
// must record the primal-heuristic and inner-solve spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "binpack/encoding.h"
#include "check/certify.h"
#include "core/adversarial.h"
#include "kkt/kkt_rewriter.h"
#include "kkt/parametric.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "obs/obs.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/path_set.h"
#include "te/pop.h"
#include "tableau_reference.h"
#include "util/rng.h"
#include "util/tolerances.h"

namespace metaopt {
namespace {

constexpr int kPoints = 16;

/// The followers of one single-shot model and a corpus of outer points
/// (full model assignments; only the followers' outer columns matter).
struct Case {
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<te::PathSet> paths;
  lp::Model model;
  std::unique_ptr<te::FlowEncoding> opt;
  std::unique_ptr<te::DpEncoding> dp;
  std::vector<std::unique_ptr<te::PopEncoding>> pop;
  std::unique_ptr<binpack::FfdEncoding> ffd;
  std::vector<const kkt::InnerProblem*> inner;
  std::vector<kkt::KktArtifacts> kkt;
  std::vector<std::vector<double>> points;

  void add_follower(const kkt::InnerProblem& p, const std::string& prefix) {
    inner.push_back(&p);
    kkt.push_back(kkt::emit_kkt(model, p, prefix));
  }
};

/// The demand leader and the OPT follower, as every TE find starts.
core::DemandVars start_te(Case& c, double demand_ub,
                          std::vector<bool> pair_mask) {
  core::AdversarialOptions options;
  options.demand_ub = demand_ub;
  options.pair_mask = std::move(pair_mask);
  core::DemandVars d =
      core::make_demand_vars(c.model, *c.topo, *c.paths, options);
  te::MaxFlowOptions opt_options;
  opt_options.include = &d.include;
  c.opt = std::make_unique<te::FlowEncoding>(te::build_max_flow(
      c.model, *c.topo, *c.paths, d.exprs, "opt.", opt_options));
  c.add_follower(c.opt->inner, "opt.");
  return d;
}

/// Per included pair: one of `levels` or a uniform draw in [0, ub].
std::vector<double> draw_volumes(const core::DemandVars& d,
                                 const std::vector<double>& levels,
                                 util::Rng& rng) {
  std::vector<double> v(d.vars.size(), 0.0);
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (!d.vars[k].valid()) continue;
    const int pick = rng.uniform_int(0, static_cast<int>(levels.size()));
    v[k] = pick < static_cast<int>(levels.size()) ? levels[pick]
                                                  : rng.uniform(0.0, d.ub);
  }
  return v;
}

std::unique_ptr<Case> dp_case(net::Topology topo, double demand_ub,
                              int mask_stride, std::uint64_t seed) {
  auto c = std::make_unique<Case>();
  c->topo = std::make_unique<net::Topology>(std::move(topo));
  c->paths =
      std::make_unique<te::PathSet>(*c->topo, te::all_pairs(*c->topo), 2);
  std::vector<bool> mask;
  if (mask_stride > 1) {
    mask.assign(c->paths->num_pairs(), false);
    for (std::size_t k = 0; k < mask.size(); k += mask_stride) mask[k] = true;
  }
  const core::DemandVars d = start_te(*c, demand_ub, mask);
  te::DpConfig config;
  config.demand_ub = d.ub;
  c->dp = std::make_unique<te::DpEncoding>(te::build_demand_pinning(
      c->model, *c->topo, *c->paths, d.vars, config, "dp.", &d.include));
  c->add_follower(c->dp->inner, "dp.");

  // Even points pin as Demand Pinning would; odd points pin at random,
  // which the single-shot rows forbid but the inner LP must still
  // answer like the reference (often Infeasible).
  util::Rng rng(seed);
  for (int i = 0; i < kPoints; ++i) {
    const std::vector<double> v =
        draw_volumes(d, {0.0, config.threshold, d.ub}, rng);
    std::vector<double> point(c->model.num_vars(), 0.0);
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (d.vars[k].valid()) point[d.vars[k].id] = v[k];
      const lp::Var pin = c->dp->pin[k];
      if (!pin.valid()) continue;
      const bool pinned = i % 2 == 0 ? v[k] <= config.threshold
                                     : rng.uniform_int(0, 1) == 1;
      point[pin.id] = pinned ? 1.0 : 0.0;
    }
    c->points.push_back(std::move(point));
  }
  return c;
}

std::unique_ptr<Case> b4_pop_case() {
  auto c = std::make_unique<Case>();
  c->topo = std::make_unique<net::Topology>(net::topologies::b4());
  c->paths =
      std::make_unique<te::PathSet>(*c->topo, te::all_pairs(*c->topo), 2);
  std::vector<bool> mask(c->paths->num_pairs(), false);
  for (std::size_t k = 0; k < mask.size(); k += 11) mask[k] = true;
  const core::DemandVars d = start_te(*c, 0.0, mask);
  for (const std::uint64_t seed : {1, 2, 3}) {
    te::PopConfig config;
    config.seed = seed;
    const std::string prefix = "pop" + std::to_string(seed) + ".";
    c->pop.push_back(std::make_unique<te::PopEncoding>(
        te::build_pop(c->model, *c->topo, *c->paths, d.exprs, config, prefix)));
    const te::PopEncoding& enc = *c->pop.back();
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      c->add_follower(enc.partitions[part].inner,
                      prefix + std::to_string(part) + ".");
    }
  }
  util::Rng rng(7);
  for (int i = 0; i < kPoints; ++i) {
    const std::vector<double> v = draw_volumes(d, {0.0, d.ub}, rng);
    std::vector<double> point(c->model.num_vars(), 0.0);
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (d.vars[k].valid()) point[d.vars[k].id] = v[k];
    }
    c->points.push_back(std::move(point));
  }
  return c;
}

std::unique_ptr<Case> ffd_case() {
  auto c = std::make_unique<Case>();
  binpack::BinPackConfig config;
  config.items = 6;
  std::vector<lp::Var> sizes;
  for (int i = 0; i < config.items; ++i) {
    sizes.push_back(
        c->model.add_var("s[" + std::to_string(i) + "]", 0.0, config.ub()));
  }
  c->ffd = std::make_unique<binpack::FfdEncoding>(
      binpack::build_ffd(c->model, sizes, config));
  c->add_follower(c->ffd->inner, "opt.");
  util::Rng rng(11);
  for (int i = 0; i < kPoints; ++i) {
    std::vector<double> point(c->model.num_vars(), 0.0);
    for (const lp::Var s : sizes) point[s.id] = rng.uniform(0.0, config.ub());
    c->points.push_back(std::move(point));
  }
  return c;
}

std::unique_ptr<Case> make_case(const std::string& name) {
  if (name == "Fig1Dp") return dp_case(net::topologies::fig1(), 200.0, 1, 3);
  if (name == "AbileneMaskedDp") {
    return dp_case(net::topologies::abilene(), 400.0, 5, 5);
  }
  if (name == "B4Pop") return b4_pop_case();
  return ffd_case();
}

std::vector<std::unique_ptr<const kkt::InnerLp>> make_lps(
    const Case& c, const lp::SimplexOptions& options = {}) {
  std::vector<std::unique_ptr<const kkt::InnerLp>> lps;
  for (const kkt::InnerProblem* p : c.inner) {
    lps.push_back(std::make_unique<const kkt::InnerLp>(*p, c.model, options));
  }
  return lps;
}

/// The reference: `inner` with the outer values substituted into a
/// fresh model (decision variable j is fresh variable j), solved by the
/// test-only dense tableau.
lp::Solution reference_solve(const kkt::InnerProblem& inner,
                             const lp::Model& outer,
                             const std::vector<double>& outer_values) {
  lp::Model fresh;
  std::unordered_map<lp::VarId, lp::VarId> remap;
  for (const lp::Var v : inner.decision_vars()) {
    const lp::VarInfo& info = outer.var(v);
    remap.emplace(v.id, fresh.add_var(info.name, info.lb, info.ub).id);
  }
  const auto substitute = [&](const lp::LinExpr& expr) {
    lp::LinExpr out(expr.constant());
    for (const auto& [vid, coef] : expr.terms()) {
      const auto it = remap.find(vid);
      if (it != remap.end()) {
        out.add_term(it->second, coef);
      } else {
        out.add_constant(coef * outer_values[vid]);
      }
    }
    return out;
  };
  for (const kkt::InnerConstraint& c : inner.constraints()) {
    lp::ConstraintSpec spec;
    spec.sense = c.spec.sense;
    lp::LinExpr lhs = substitute(c.spec.lhs);
    spec.rhs = c.spec.rhs - lhs.constant();
    lhs.add_constant(-lhs.constant());
    lhs.normalize();
    spec.lhs = std::move(lhs);
    fresh.add_constraint(std::move(spec), c.name);
  }
  fresh.set_objective(inner.sense(), substitute(inner.objective()));
  return testref::solve_tableau(fresh);
}

/// The inner objective, outer terms included, at an InnerLp solution.
double inner_objective(const kkt::InnerLp& lp, const kkt::ParametricSolve& ps,
                       const std::vector<double>& outer_values) {
  double obj = lp.inner().objective().constant();
  for (const auto& [vid, coef] : lp.inner().objective().terms()) {
    const int col = lp.decision_column(vid);
    obj += coef * (col >= 0 ? ps.solution.values[col] : outer_values[vid]);
  }
  return obj;
}

void expect_identical(const lp::Solution& a, const lp::Solution& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.values, b.values) << what;
  EXPECT_EQ(a.duals, b.duals) << what;
  EXPECT_EQ(a.reduced_costs, b.reduced_costs) << what;
}

bool identical(const lp::Solution& a, const lp::Solution& b) {
  return a.status == b.status && a.objective == b.objective &&
         a.values == b.values && a.duals == b.duals &&
         a.reduced_costs == b.reduced_costs;
}

/// The answer of a brand-new InnerLp: a solve with no history at all.
lp::Solution fresh_solve(const Case& c, std::size_t follower,
                         const std::vector<double>& point) {
  return kkt::InnerLp(*c.inner[follower], c.model).solve(point).solution;
}

/// The outer variable of each outer column of `lp`, in column order,
/// read back through bounds_at.
std::vector<lp::VarId> outer_columns(const kkt::InnerLp& lp) {
  std::vector<double> ids(lp.outer().num_vars());
  for (std::size_t v = 0; v < ids.size(); ++v) ids[v] = static_cast<double>(v);
  std::vector<double> lb;
  std::vector<double> ub;
  lp.bounds_at(ids, lb, ub);
  std::vector<lp::VarId> out;
  for (std::size_t j = lp.inner().decision_vars().size(); j < lb.size(); ++j) {
    out.push_back(static_cast<lp::VarId>(lb[j]));
  }
  return out;
}

/// Runs `fn` with recording on; returns the trace it left.
std::vector<obs::TraceEvent> traced(const std::function<void()>& fn) {
  obs::set_enabled(true);
  obs::clear_trace();
  fn();
  std::vector<obs::TraceEvent> events = obs::trace_events();
  obs::set_enabled(false);
  obs::clear_trace();
  return events;
}

std::vector<obs::TraceEvent> named(const std::vector<obs::TraceEvent>& events,
                                   const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : events) {
    if (e.name != nullptr && name == e.name) out.push_back(e);
  }
  return out;
}

double counter_value(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0.0 : m->value;
}

class InnerLpTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InnerLpTest, MatchesSubstitutedReference) {
  const std::unique_ptr<Case> c = make_case(GetParam());
  const auto lps = make_lps(*c);
  const check::CertifyOptions certify{};
  int assembled = 0;  // points where every follower assembled
  for (std::size_t i = 0; i < c->points.size(); ++i) {
    const std::vector<double>& point = c->points[i];
    std::vector<double> assign = point;
    std::vector<double> assign_ref = point;
    bool all = true;
    for (std::size_t f = 0; f < lps.size(); ++f) {
      const std::string what =
          "point " + std::to_string(i) + ", follower " + std::to_string(f);
      const kkt::InnerLp& lp = *lps[f];
      const kkt::ParametricSolve ps = lp.solve(point);
      const kkt::ParametricSolve ref{reference_solve(*c->inner[f], c->model,
                                                     point)};
      ASSERT_EQ(ps.solution.status, ref.solution.status) << what;
      if (ps.ok()) {
        EXPECT_NEAR(inner_objective(lp, ps, point), ref.solution.objective,
                    tol::kFeasTol *
                        std::max(1.0, std::abs(ref.solution.objective)))
            << what;
        std::vector<double> lb;
        std::vector<double> ub;
        lp.bounds_at(point, lb, ub);
        const check::Certificate cert =
            check::certify_lp(lp.model(), ps.solution, certify, &lb, &ub);
        EXPECT_TRUE(cert.ok) << what << ": " << cert.to_string();
      }
      const bool ok = kkt::assemble_kkt_point(lp, c->kkt[f], ps, assign);
      EXPECT_EQ(ok, kkt::assemble_kkt_point(lp, c->kkt[f], ref, assign_ref))
          << what;
      all = all && ok;
    }
    assembled += all ? 1 : 0;
  }
  EXPECT_GT(assembled, 0) << "no point assembled: the comparison is vacuous";
}

TEST_P(InnerLpTest, SolvesArePureAcrossOrdersThreadsAndInstances) {
  // Each arm solves on InnerLps of its own, so no arm is answered from
  // cache entries another arm left behind: a solve that depended on the
  // previous call would differ between the orders.
  const std::unique_ptr<Case> c = make_case(GetParam());
  const std::size_t num_followers = c->inner.size();
  const std::size_t n = c->points.size() * num_followers;
  const auto solve = [&](const auto& with, std::size_t task) {
    return with[task % num_followers]
        ->solve(c->points[task / num_followers])
        .solution;
  };

  const auto serial_lps = make_lps(*c);
  std::vector<lp::Solution> serial(n);
  for (std::size_t t = 0; t < n; ++t) serial[t] = solve(serial_lps, t);
  const auto reversed_lps = make_lps(*c);
  std::vector<lp::Solution> reversed(n);
  for (std::size_t t = n; t-- > 0;) reversed[t] = solve(reversed_lps, t);
  const auto threaded_lps = make_lps(*c);
  std::vector<lp::Solution> threaded(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (std::size_t t = next++; t < n; t = next++) {
        threaded[t] = solve(threaded_lps, t);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t point = t / num_followers;
    const std::size_t follower = t % num_followers;
    const std::string what = "point " + std::to_string(point) +
                             ", follower " + std::to_string(follower);
    expect_identical(serial[t], reversed[t], what + " (reverse order)");
    expect_identical(serial[t], threaded[t], what + " (4 threads)");
    expect_identical(serial[t], fresh_solve(*c, follower, c->points[point]),
                     what + " (fresh InnerLp)");
  }
}

TEST_P(InnerLpTest, CacheHitsMatchFreshSolves) {
  const std::unique_ptr<Case> c = make_case(GetParam());
  const std::size_t num_followers = c->inner.size();
  std::vector<std::vector<double>> points = c->points;
  // Every outer value equal, and above every link capacity: followers
  // with as many outer columns have the same key here but different
  // optima, so a cache shared between InnerLps would answer one follower
  // with another's LP. The substituted reference, which no cache
  // reaches, tells them apart.
  points.emplace_back(c->model.num_vars(), 1e4);
  ASSERT_GE(points.size(), 2 * kkt::InnerLp::kCacheEntries);
  const auto lps = make_lps(*c);
  std::vector<lp::Solution> fresh(points.size() * num_followers);
  for (std::size_t t = 0; t < fresh.size(); ++t) {
    const std::size_t follower = t % num_followers;
    const std::vector<double>& point = points[t / num_followers];
    fresh[t] = fresh_solve(*c, follower, point);
    const lp::Solution ref =
        reference_solve(*c->inner[follower], c->model, point);
    const std::string what = "point " + std::to_string(t / num_followers) +
                             ", follower " + std::to_string(follower);
    ASSERT_EQ(fresh[t].status, ref.status) << what;
    if (ref.status == lp::SolveStatus::Optimal) {
      EXPECT_NEAR(inner_objective(*lps[follower], {fresh[t]}, point),
                  ref.objective,
                  tol::kFeasTol * std::max(1.0, std::abs(ref.objective)))
          << what;
    }
  }

  // Three passes over the points (forward, backward, stride 5), so
  // entries are hit, evicted and solved again; 4 threads share one
  // InnerLp per follower.
  std::vector<std::size_t> order;
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) order.push_back(i);
  for (std::size_t i = n; i-- > 0;) order.push_back(i);
  for (std::size_t i = 0; i < n; ++i) order.push_back(i * 5 % n);
  const std::size_t calls = order.size() * num_followers;
  std::vector<lp::Solution> answers(calls);
  const obs::MetricsSnapshot before = obs::snapshot();
  const std::vector<obs::TraceEvent> events = traced([&] {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        for (std::size_t t = next++; t < calls; t = next++) {
          answers[t] = lps[t % num_followers]
                           ->solve(points[order[t / num_followers]])
                           .solution;
        }
      });
    }
    for (std::thread& w : workers) w.join();
  });
  const obs::MetricsSnapshot after = obs::snapshot();
  for (std::size_t t = 0; t < calls; ++t) {
    const std::size_t point = order[t / num_followers];
    const std::size_t follower = t % num_followers;
    expect_identical(answers[t], fresh[point * num_followers + follower],
                     "call " + std::to_string(t) + ": point " +
                         std::to_string(point) + ", follower " +
                         std::to_string(follower));
  }
  const double solves =
      static_cast<double>(named(events, "kkt.inner_solve").size());
  const double hits = counter_value(after, "kkt.inner_cache_hits") -
                      counter_value(before, "kkt.inner_cache_hits");
  EXPECT_EQ(hits, static_cast<double>(calls) - solves);
  EXPECT_GT(hits, 0.0);
  // More solves than one pass needs: evicted entries came back.
  EXPECT_GT(solves, static_cast<double>(n * num_followers));

  // Values that differ in a single outer column are different keys.
  int changed = 0;  // perturbations that change the fresh answer
  for (std::size_t f = 0; f < num_followers; ++f) {
    const kkt::InnerLp lp(*c->inner[f], c->model);
    const std::vector<lp::VarId> columns = outer_columns(lp);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      const std::vector<double>& point = c->points[k % c->points.size()];
      std::vector<double> moved = point;
      moved[columns[k]] += 1.0;
      const std::string what = "follower " + std::to_string(f) +
                               ", outer column " + std::to_string(k);
      const lp::Solution want = fresh_solve(*c, f, moved);
      (void)lp.solve(point);
      expect_identical(lp.solve(moved).solution, want, what);
      changed += identical(want, fresh_solve(*c, f, point)) ? 0 : 1;
    }
  }
  EXPECT_GT(changed, 0) << "no perturbation changed an answer: vacuous";

  // Only Optimal answers are stored: anything else is solved again.
  int non_optimal = 0;
  for (std::size_t t = 0; t < fresh.size(); ++t) {
    if (fresh[t].status == lp::SolveStatus::Optimal) continue;
    ++non_optimal;
    const kkt::InnerLp lp(*c->inner[t % num_followers], c->model);
    const std::vector<double>& point = points[t / num_followers];
    const std::vector<obs::TraceEvent> twice = traced([&] {
      expect_identical(lp.solve(point).solution, fresh[t], "first");
      expect_identical(lp.solve(point).solution, fresh[t], "second");
    });
    EXPECT_EQ(named(twice, "kkt.inner_solve").size(), 2u)
        << "a non-Optimal answer came from the cache";
  }
  if (GetParam().ends_with("Dp")) {
    EXPECT_GT(non_optimal, 0) << "no Infeasible point: the check is vacuous";
  }
}

TEST_P(InnerLpTest, CertifyOptionReachesEverySolve) {
  const std::unique_ptr<Case> c = make_case(GetParam());
  for (const bool certify : {false, true}) {
    lp::SimplexOptions options;
    options.certify = certify;
    const auto lps = make_lps(*c, options);
    int optimal = 0;
    for (const std::vector<double>& point : c->points) {
      for (const auto& lp : lps) {
        const kkt::ParametricSolve ps = lp->solve(point);
        if (!ps.ok()) continue;
        ++optimal;
        EXPECT_EQ(ps.solution.certified, certify);
      }
    }
    EXPECT_GT(optimal, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Followers, InnerLpTest,
                         ::testing::Values("Fig1Dp", "AbileneMaskedDp",
                                           "B4Pop", "Ffd6"),
                         [](const auto& info) { return info.param; });

/// Spans of a traced fig1 find run at a small node budget.
class TracedFind : public ::testing::Test {
 protected:
  static core::AdversarialOptions options(double demand_ub) {
    core::AdversarialOptions o;
    o.demand_ub = demand_ub;
    o.mip.max_nodes = 20;
    o.mip.time_limit_seconds = 3600.0;
    o.seed_search_seconds = 0.0;
    return o;
  }

  net::Topology topo = net::topologies::fig1();
  te::PathSet paths{topo, te::all_pairs(topo), 2};
  core::AdversarialGapFinder finder{topo, paths};
};

TEST_F(TracedFind, DpFindRecordsHeuristicSpans) {
  const std::vector<obs::TraceEvent> events = traced([&] {
    (void)finder.find_dp_gap(te::DpConfig{}, options(200.0));
  });
  EXPECT_FALSE(named(events, "core.primal_heuristic").empty());
  EXPECT_FALSE(named(events, "kkt.inner_solve").empty());
}

TEST_F(TracedFind, RunLpOptionsReachTheInnerSolves) {
  // Every POP follower is a max-flow LP, always Optimal, so with
  // certification on each inner solve certifies exactly once; with it
  // off none does, whatever the build's default.
  te::PopConfig pop;
  pop.num_partitions = 2;
  for (const bool certify : {false, true}) {
    core::AdversarialOptions o = options(0.0);
    o.mip.lp.certify = certify;
    const std::vector<obs::TraceEvent> events = traced([&] {
      (void)finder.find_pop_gap(pop, {1, 2}, o);
    });
    const std::vector<obs::TraceEvent> solves =
        named(events, "kkt.inner_solve");
    const std::vector<obs::TraceEvent> certs = named(events, "simplex.certify");
    ASSERT_FALSE(solves.empty());
    for (const obs::TraceEvent& s : solves) {
      const long inside = std::count_if(
          certs.begin(), certs.end(), [&](const obs::TraceEvent& e) {
            return e.tid == s.tid && e.ts_ns >= s.ts_ns &&
                   e.ts_ns + e.dur_ns <= s.ts_ns + s.dur_ns;
          });
      EXPECT_EQ(inside, certify ? 1 : 0) << "certify=" << certify;
    }
  }
}

}  // namespace
}  // namespace metaopt
