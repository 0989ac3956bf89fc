#include "te/max_flow.h"

#include <algorithm>
#include <stdexcept>

#include "lp/revised_simplex.h"
#include "lp/warm_start_pool.h"

namespace metaopt::te {

FlowEncoding build_max_flow(lp::Model& model, const net::Topology& topo,
                            const PathSet& paths,
                            const std::vector<lp::LinExpr>& demand,
                            const std::string& prefix,
                            const MaxFlowOptions& options) {
  if (demand.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("build_max_flow: demand size mismatch");
  }
  if (options.capacity_override &&
      options.capacity_override->size() !=
          static_cast<std::size_t>(topo.num_edges())) {
    throw std::invalid_argument("build_max_flow: capacity override size");
  }

  FlowEncoding enc;
  enc.path_flow.resize(paths.num_pairs());

  enc.inner.set_bound_dual_bound(kFlowDualBound * (paths.max_hops() + 1.0));

  // Flow variables + volume rows.
  std::vector<lp::LinExpr> edge_load(topo.num_edges());
  std::vector<bool> edge_used(topo.num_edges(), false);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (options.include && !(*options.include)[k]) continue;
    const auto& plist = paths.paths(k);
    if (plist.empty()) continue;
    lp::LinExpr flow_k;
    enc.path_flow[k].reserve(plist.size());
    for (std::size_t p = 0; p < plist.size(); ++p) {
      const lp::Var f = model.add_var(
          prefix + "f[" + std::to_string(k) + "," + std::to_string(p) + "]");
      enc.inner.add_decision_var(f);
      enc.path_flow[k].push_back(f);
      flow_k += f;
      enc.total_flow += f;
      for (net::EdgeId e : plist[p].edges) {
        edge_load[e] += f;
        edge_used[e] = true;
      }
    }
    enc.inner.add_constraint(flow_k <= demand[k],
                             prefix + "vol[" + std::to_string(k) + "]",
                             kFlowDualBound);
  }

  // Capacity rows (only for edges actually carrying a path).
  for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
    if (!edge_used[e]) continue;
    const double cap = options.capacity_override
                           ? (*options.capacity_override)[e]
                           : topo.edge(e).capacity;
    enc.inner.add_constraint(
        edge_load[e] <= lp::LinExpr(cap * options.capacity_scale),
        prefix + "cap[" + std::to_string(e) + "]", kFlowDualBound);
  }

  enc.inner.set_objective(enc.total_flow);
  return enc;
}

struct MaxFlowLp::Structure {
  lp::Model model;
  std::vector<std::vector<lp::VarId>> flow_col;  ///< [k][p]; empty: no paths
  std::vector<lp::VarId> demand_col;  ///< per pair; kInvalidVar: no paths
  std::vector<lp::VarId> cap_col;     ///< per edge; kInvalidVar: unused
  std::vector<lp::ConId> vol_row;     ///< per pair; -1: no paths
  std::vector<lp::ConId> cap_row;     ///< per edge; -1: unused
  lp::WarmStartPool pool{model};

  Structure(const net::Topology& topo, const PathSet& paths) {
    const int num_pairs = paths.num_pairs();
    flow_col.resize(num_pairs);
    demand_col.assign(num_pairs, lp::kInvalidVar);
    cap_col.assign(topo.num_edges(), lp::kInvalidVar);
    vol_row.assign(num_pairs, -1);
    cap_row.assign(topo.num_edges(), -1);

    // Columns: every path flow, then one demand column per pair with
    // paths, then one capacity column per used edge. Bounds are set per
    // solve, so the model's own bounds are placeholders.
    std::vector<lp::LinExpr> edge_load(topo.num_edges());
    lp::LinExpr total_flow;
    for (int k = 0; k < num_pairs; ++k) {
      const auto& plist = paths.paths(k);
      flow_col[k].reserve(plist.size());
      for (std::size_t p = 0; p < plist.size(); ++p) {
        const lp::Var f = model.add_var(
            "f[" + std::to_string(k) + "," + std::to_string(p) + "]");
        flow_col[k].push_back(f.id);
        total_flow += f;
        for (net::EdgeId e : plist[p].edges) edge_load[e] += f;
      }
    }
    for (int k = 0; k < num_pairs; ++k) {
      if (flow_col[k].empty()) continue;
      demand_col[k] = model.add_var("d[" + std::to_string(k) + "]").id;
    }
    for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
      if (edge_load[e].terms().empty()) continue;
      cap_col[e] = model.add_var("c[" + std::to_string(e) + "]").id;
    }

    // Rows: volume rows in pair order, then capacity rows in edge order.
    for (int k = 0; k < num_pairs; ++k) {
      if (flow_col[k].empty()) continue;
      lp::LinExpr flow_k;
      for (const lp::VarId f : flow_col[k]) flow_k += lp::Var{f};
      vol_row[k] = model.add_constraint(flow_k - lp::Var{demand_col[k]} <= 0.0,
                                        "vol[" + std::to_string(k) + "]");
    }
    for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
      if (cap_col[e] == lp::kInvalidVar) continue;
      cap_row[e] =
          model.add_constraint(edge_load[e] - lp::Var{cap_col[e]} <= 0.0,
                               "cap[" + std::to_string(e) + "]");
    }
    model.set_objective(lp::ObjSense::Maximize, total_flow);
  }

  /// The primal start basis of a cold solve at lower bounds `lb` (the
  /// demand and capacity columns are fixed, so lb holds the instance): a
  /// greedy routing, path-major. For p = 0, 1, ... every pair with
  /// demand left pushes min(left, bottleneck residual) onto its p-th
  /// path. A path that carries flow makes its column basic in place of
  /// one slack: the pair's volume-row slack when the demand is used up,
  /// else the capacity-row slack of the first edge the push saturated
  /// (push is then exactly that edge's residual, so the residual drops
  /// to exactly 0). Either row is never touched with positive flow
  /// again, so the basis is triangular, hence nonsingular, and every
  /// slack stays >= 0, so it is primal feasible. A pure function of lb.
  [[nodiscard]] lp::Basis greedy_start(const PathSet& paths,
                                       const lp::BoundedForm& form,
                                       const std::vector<double>& lb) const {
    lp::Basis start;
    start.status.assign(form.num_cols(), lp::VarStatus::AtLower);
    for (int row = 0; row < form.num_rows; ++row) {
      start.status[form.logical_col(row)] = lp::VarStatus::Basic;
    }
    std::vector<double> left(flow_col.size(), 0.0);
    std::size_t max_paths = 0;
    for (std::size_t k = 0; k < flow_col.size(); ++k) {
      if (flow_col[k].empty()) continue;
      left[k] = lb[demand_col[k]];
      max_paths = std::max(max_paths, flow_col[k].size());
    }
    std::vector<double> residual(cap_col.size(), 0.0);
    for (std::size_t e = 0; e < cap_col.size(); ++e) {
      if (cap_col[e] != lp::kInvalidVar) residual[e] = lb[cap_col[e]];
    }
    for (std::size_t p = 0; p < max_paths; ++p) {
      for (std::size_t k = 0; k < flow_col.size(); ++k) {
        // Masked pairs have lb[d_k] = 0, so no demand left.
        if (p >= flow_col[k].size() || !(left[k] > 0.0)) continue;
        const std::vector<net::EdgeId>& edges =
            paths.paths(static_cast<int>(k))[p].edges;
        double push = left[k];
        for (const net::EdgeId e : edges) push = std::min(push, residual[e]);
        if (!(push > 0.0)) continue;
        left[k] -= push;
        for (const net::EdgeId e : edges) residual[e] -= push;
        lp::ConId row = vol_row[k];
        if (left[k] > 0.0) {
          row = cap_row[*std::ranges::find_if(
              edges, [&](net::EdgeId e) { return residual[e] == 0.0; })];
        }
        start.status[flow_col[k][p]] = lp::VarStatus::Basic;
        start.status[form.logical_col(row)] = lp::VarStatus::AtLower;
      }
    }
    return start;
  }
};

MaxFlowLp::MaxFlowLp(const net::Topology& topo, const PathSet& paths)
    : topo_(topo), paths_(paths) {}

MaxFlowLp::~MaxFlowLp() = default;

const MaxFlowLp::Structure& MaxFlowLp::structure() const {
  std::call_once(built_, [this] {
    structure_ = std::make_unique<const Structure>(topo_, paths_);
  });
  return *structure_;
}

MaxFlowResult MaxFlowLp::solve(const std::vector<double>& volumes,
                               const MaxFlowOptions& options,
                               const lp::Basis* hint) const {
  const Structure& st = structure();
  if (volumes.size() != st.flow_col.size()) {
    throw std::invalid_argument("MaxFlowLp::solve: volume size mismatch");
  }
  if (options.include && options.include->size() != st.flow_col.size()) {
    throw std::invalid_argument("MaxFlowLp::solve: include mask size");
  }
  if (options.capacity_override &&
      options.capacity_override->size() != st.cap_col.size()) {
    throw std::invalid_argument("MaxFlowLp::solve: capacity override size");
  }

  // The whole instance is bounds: flows in [0, inf) (masked: [0, 0]),
  // demand and capacity columns fixed at their values.
  std::vector<double> lb(st.model.num_vars(), 0.0);
  std::vector<double> ub(st.model.num_vars(), 0.0);
  for (std::size_t k = 0; k < st.flow_col.size(); ++k) {
    if (st.flow_col[k].empty()) continue;
    const bool included = !options.include || (*options.include)[k];
    for (const lp::VarId f : st.flow_col[k]) ub[f] = included ? lp::kInf : 0.0;
    const double d = included ? volumes[k] : 0.0;
    lb[st.demand_col[k]] = d;
    ub[st.demand_col[k]] = d;
  }
  for (std::size_t e = 0; e < st.cap_col.size(); ++e) {
    if (st.cap_col[e] == lp::kInvalidVar) continue;
    const double cap = options.capacity_override
                           ? (*options.capacity_override)[e]
                           : topo_.edge(static_cast<net::EdgeId>(e)).capacity;
    lb[st.cap_col[e]] = cap * options.capacity_scale;
    ub[st.cap_col[e]] = cap * options.capacity_scale;
  }

  lp::SimplexOptions simplex;
  simplex.certify = options.certify;
  simplex.want_duals = options.certify;  // the certifier's dual pillars
  lp::WarmStartPool::Lease lease(st.pool);
  lp::WarmStartContext& context = lease.context();
  context.hint = hint;
  lp::Basis start;
  if (hint == nullptr) start = st.greedy_start(paths_, context.form, lb);
  context.start = hint == nullptr ? &start : nullptr;
  const lp::Solution sol =
      lp::SimplexSolver(simplex).solve_with_bounds(st.model, lb, ub, context);
  MaxFlowResult result;
  result.basis = context.take_result();
  result.status = sol.status;
  if (sol.status != lp::SolveStatus::Optimal) return result;
  result.certified = sol.certified;
  result.total_flow = sol.objective;
  result.path_flow.resize(st.flow_col.size());
  for (std::size_t k = 0; k < st.flow_col.size(); ++k) {
    if (options.include && !(*options.include)[k]) continue;
    result.path_flow[k].reserve(st.flow_col[k].size());
    for (const lp::VarId f : st.flow_col[k]) {
      result.path_flow[k].push_back(sol.values[f]);
    }
  }
  return result;
}

MaxFlowResult solve_max_flow(const net::Topology& topo, const PathSet& paths,
                             const std::vector<double>& volumes,
                             const MaxFlowOptions& options) {
  return MaxFlowLp(topo, paths).solve(volumes, options);
}

std::vector<double> edge_loads(const net::Topology& topo, const PathSet& paths,
                               const std::vector<std::vector<double>>& flow) {
  std::vector<double> load(topo.num_edges(), 0.0);
  for (int k = 0; k < static_cast<int>(flow.size()); ++k) {
    const auto& plist = paths.paths(k);
    for (std::size_t p = 0; p < flow[k].size() && p < plist.size(); ++p) {
      for (net::EdgeId e : plist[p].edges) load[e] += flow[k][p];
    }
  }
  return load;
}

}  // namespace metaopt::te
