#include "binpack/instance.h"

#include <cstdio>

namespace metaopt::binpack {

namespace {

std::string format3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string BinPackInstance::leader_var_name(int k) const {
  const int i = k / config_.dims;
  const int t = k % config_.dims;
  if (config_.dims == 1) return "s[" + std::to_string(i) + "]";
  return "s[" + std::to_string(i) + "," + std::to_string(t) + "]";
}

std::vector<int> BinPackInstance::core_element_vars(int e) const {
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(config_.dims));
  for (int t = 0; t < config_.dims; ++t) {
    vars.push_back(e * config_.dims + t);
  }
  return vars;
}

std::unique_ptr<heur::GapOracle> BinPackInstance::make_probe_oracle(
    const heur::ProbeOptions& options) const {
  mip::MipOptions mip = default_opt_mip();
  mip.time_limit_seconds = options.opt_budget_seconds;
  mip.certify = options.certify;
  mip.lp.certify = options.certify;
  return std::make_unique<BinPackGapOracle>(config_, mip);
}

heur::SolutionBreakdown BinPackInstance::explain_solution(
    const std::vector<double>& leader,
    const heur::ProbeOptions& options) const {
  heur::SolutionBreakdown out;
  const FirstFitResult ff = simulate_first_fit(leader, config_);
  mip::MipOptions mip = default_opt_mip();
  mip.time_limit_seconds = options.opt_budget_seconds;
  mip.certify = options.certify;
  mip.lp.certify = options.certify;
  const OptBinResult opt = solve_opt_bins(leader, config_, mip);
  if (opt.status != lp::SolveStatus::Optimal || opt.assignment.empty()) {
    return out;
  }
  out.available = true;
  out.certified = opt.certified;

  const int d = config_.dims;
  const int num_bins = config_.num_bins();
  // Per-bin, per-dimension loads on both sides; a row per bin slot that
  // either side actually opens.
  std::vector<double> heur_load(static_cast<std::size_t>(num_bins) * d, 0.0);
  std::vector<double> opt_load(static_cast<std::size_t>(num_bins) * d, 0.0);
  for (int i = 0; i < config_.items; ++i) {
    for (int t = 0; t < d; ++t) {
      const double s = leader[i * d + t];
      if (ff.assignment[i] >= 0) heur_load[ff.assignment[i] * d + t] += s;
      if (opt.assignment[i] >= 0) opt_load[opt.assignment[i] * d + t] += s;
    }
  }
  for (int b = 0; b < num_bins; ++b) {
    for (int t = 0; t < d; ++t) {
      const double h = heur_load[b * d + t];
      const double o = opt_load[b * d + t];
      if (h <= 0.0 && o <= 0.0) continue;
      heur::SaturationRow row;
      row.name = d == 1 ? "bin[" + std::to_string(b) + "]"
                        : "bin[" + std::to_string(b) + "," +
                              std::to_string(t) + "]";
      row.capacity = config_.capacity;
      row.heur_load = h;
      row.opt_load = o;
      out.rows.push_back(row);
    }
  }
  for (int i = 0; i < config_.items; ++i) {
    double total = 0.0;
    for (int t = 0; t < d; ++t) total += leader[i * d + t];
    if (total <= 0.0) continue;  // masked / empty item: nothing to say
    heur::ElementNote note;
    note.element = i;
    const std::string heur_bin =
        ff.assignment[i] >= 0 ? "bin " + std::to_string(ff.assignment[i])
                              : "unplaced (out of bins)";
    note.note = name() + " -> " + heur_bin + ", opt -> bin " +
                std::to_string(opt.assignment[i]) +
                (config_.decreasing
                     ? " (key " + format3(total) + ")"
                     : "");
    out.notes.push_back(note);
  }
  return out;
}

std::unique_ptr<heur::HeuristicInstance> make_binpack_instance(
    const heur::InstanceConfig& config, bool decreasing) {
  BinPackConfig bp;
  bp.items = config.items;
  bp.dims = config.dims;
  bp.bins = config.bins;
  bp.size_ub = config.leader_ub;  // <= 0 keeps the capacity default
  bp.decreasing = decreasing;
  return std::make_unique<BinPackInstance>(bp);
}

}  // namespace metaopt::binpack
