#include "te/demand_pinning.h"

#include <algorithm>
#include <stdexcept>

namespace metaopt::te {

DpResult solve_demand_pinning(const net::Topology& topo, const PathSet& paths,
                              const std::vector<double>& volumes,
                              const DpConfig& config) {
  return solve_demand_pinning(MaxFlowLp(topo, paths), volumes, config);
}

DpResult solve_demand_pinning(const MaxFlowLp& max_flow,
                              const std::vector<double>& volumes,
                              const DpConfig& config, const lp::Basis* hint) {
  const net::Topology& topo = max_flow.topology();
  const PathSet& paths = max_flow.paths();
  if (volumes.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("solve_demand_pinning: volume size mismatch");
  }
  DpResult result;

  // Phase 1: pin everything at or below the threshold onto its shortest
  // path and subtract the consumed capacity.
  std::vector<double> residual(topo.num_edges());
  for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
    residual[e] = topo.edge(e).capacity;
  }
  std::vector<bool> include(paths.num_pairs(), false);
  result.pinned.assign(paths.num_pairs(), false);
  std::vector<double> pinned_load(topo.num_edges(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (paths.paths(k).empty()) continue;
    if (volumes[k] <= config.threshold) {
      result.pinned[k] = true;
      result.pinned_flow += volumes[k];
      ++result.num_pinned;
      for (net::EdgeId e : paths.shortest(k).edges) {
        residual[e] -= volumes[k];
        pinned_load[e] += volumes[k];
      }
    } else {
      include[k] = true;
    }
  }
  for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
    if (residual[e] < -1e-9) {
      // Pinned flows oversubscribe this link: the heuristic is
      // infeasible on this input (§5).
      result.status = lp::SolveStatus::Infeasible;
      result.feasible = false;
      return result;
    }
    residual[e] = std::max(residual[e], 0.0);
  }

  // Phase 2: jointly route the remaining demands on residual capacity.
  MaxFlowOptions options;
  options.include = &include;
  options.capacity_override = &residual;
  options.certify = config.certify;
  const MaxFlowResult residual_flow =
      max_flow.solve(volumes, options, hint);
  if (residual_flow.status != lp::SolveStatus::Optimal) {
    result.status = residual_flow.status;
    return result;
  }
  result.status = lp::SolveStatus::Optimal;
  result.feasible = true;
  result.certified = residual_flow.certified;
  result.total_flow = result.pinned_flow + residual_flow.total_flow;
  result.edge_load = edge_loads(topo, paths, residual_flow.path_flow);
  for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
    result.edge_load[e] += pinned_load[e];
  }
  return result;
}

DpEncoding build_demand_pinning(lp::Model& model, const net::Topology& topo,
                                const PathSet& paths,
                                const std::vector<lp::Var>& demand,
                                const DpConfig& config,
                                const std::string& prefix,
                                const std::vector<bool>* include) {
  if (demand.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("build_demand_pinning: demand size mismatch");
  }
  const double demand_ub =
      config.demand_ub > 0.0 ? config.demand_ub : topo.max_capacity();

  DpEncoding enc;
  enc.pin.assign(paths.num_pairs(), lp::Var{});

  // Start from the plain max-flow feasible region (volume + capacity
  // rows, flow vars). Excluded pairs get no flow variables; their demand
  // expression is never read.
  std::vector<lp::LinExpr> demand_exprs;
  demand_exprs.reserve(demand.size());
  for (std::size_t k = 0; k < demand.size(); ++k) {
    if (demand[k].valid()) {
      demand_exprs.emplace_back(demand[k]);
    } else {
      demand_exprs.emplace_back(0.0);
    }
  }
  MaxFlowOptions mf_options;
  mf_options.dual_bound_scale = config.dual_bound_scale;
  mf_options.include = include;
  FlowEncoding flow =
      build_max_flow(model, topo, paths, demand_exprs, prefix, mf_options);
  enc.path_flow = std::move(flow.path_flow);
  enc.total_flow = std::move(flow.total_flow);
  enc.inner = std::move(flow.inner);
  // Pinning rows have a looser analytic dual bound than plain max-flow;
  // widen the bound-row budget accordingly.
  const double pin_dual =
      config.dual_bound_scale > 0.0
          ? config.dual_bound_scale * (paths.max_hops() + 1.0)
          : lp::kInf;
  enc.inner.set_bound_dual_bound(pin_dual);

  const double big_m_d = demand_ub + config.threshold + 1.0;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (enc.path_flow[k].empty()) continue;
    const lp::Var d = demand[k];
    const lp::Var b = model.add_binary(prefix + "pin[" + std::to_string(k) + "]");
    enc.pin[k] = b;

    // Outer indicator rows: b = 1  <=>  d <= T.
    //   d - T <= M (1 - b)        (b = 1 forces d <= T)
    //   (T + eps) - d <= M b      (b = 0 forces d >= T + eps)
    model.add_constraint(
        lp::LinExpr(d) + big_m_d * lp::LinExpr(b) <=
            lp::LinExpr(config.threshold + big_m_d),
        prefix + "pin_on[" + std::to_string(k) + "]");
    model.add_constraint(
        lp::LinExpr(config.threshold + config.epsilon) - lp::LinExpr(d) <=
            big_m_d * lp::LinExpr(b),
        prefix + "pin_off[" + std::to_string(k) + "]");

    // Inner rows (the heuristic LP sees b and d as constants):
    //   p != shortest:  f_k^p <= M_f (1 - b)
    //   shortest:       d - f_k^0 <= M_d (1 - b)   (pins f = d via vol row)
    const auto& plist = paths.paths(k);
    for (std::size_t p = 1; p < plist.size(); ++p) {
      double min_cap = lp::kInf;
      for (net::EdgeId e : plist[p].edges) {
        min_cap = std::min(min_cap, topo.edge(e).capacity);
      }
      enc.inner.add_constraint(
          lp::LinExpr(enc.path_flow[k][p]) + min_cap * lp::LinExpr(b) <=
              lp::LinExpr(min_cap),
          prefix + "nosp[" + std::to_string(k) + "," + std::to_string(p) + "]",
          pin_dual);
    }
    enc.inner.add_constraint(
        lp::LinExpr(d) - lp::LinExpr(enc.path_flow[k][0]) +
                demand_ub * lp::LinExpr(b) <=
            lp::LinExpr(demand_ub),
        prefix + "pinflow[" + std::to_string(k) + "]", pin_dual);
  }
  enc.inner.set_objective(enc.total_flow);
  return enc;
}

}  // namespace metaopt::te
