#include "domains/te_instances.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/single_shot.h"
#include "net/topologies.h"
#include "net/topology_io.h"
#include "te/demand_pinning.h"
#include "te/gap.h"
#include "te/max_flow.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace metaopt::domains {

net::Topology load_topology(const std::string& spec) {
  if (spec == "b4") return net::topologies::b4();
  if (spec == "abilene") return net::topologies::abilene();
  if (spec == "swan") return net::topologies::swan();
  if (spec == "fig1") return net::topologies::fig1();
  if (util::starts_with(spec, "circulant:")) {
    const std::vector<std::string> fields = util::split(spec, ':');
    const auto field = [&](std::size_t i) {
      const std::optional<std::uint64_t> v =
          fields.size() == 3 ? util::parse_uint(fields[i]) : std::nullopt;
      if (!v || *v > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
        throw std::invalid_argument("topology '" + spec +
                                    "': want circulant:<n>:<k>");
      }
      return static_cast<int>(*v);
    };
    return net::topologies::circulant(field(1), field(2));
  }
  return net::read_topology_file(spec);
}

std::vector<bool> make_support_mask(int num_pairs, int target) {
  std::vector<bool> mask;
  if (target <= 0 || target >= num_pairs) return mask;  // empty = all pairs
  mask.assign(num_pairs, false);
  const int stride = std::max(1, num_pairs / target);
  int enabled = 0;
  for (int k = 0; k < num_pairs && enabled < target; k += stride) {
    mask[k] = true;
    ++enabled;
  }
  return mask;
}

TeInstanceBase::TeInstanceBase(const heur::InstanceConfig& config)
    : topo_(load_topology(config.topology)),
      paths_(topo_, te::all_pairs(topo_), config.paths_per_pair) {
  mask_ = make_support_mask(paths_.num_pairs(), config.support);
  demand_ub_ =
      config.leader_ub > 0.0 ? config.leader_ub : topo_.max_capacity();
}

std::string TeInstanceBase::leader_var_name(int k) const {
  const auto& pair = paths_.pair(k);
  return "d[" + std::to_string(pair.first) + "->" +
         std::to_string(pair.second) + "]";
}

core::AdversarialOptions TeInstanceBase::adversarial_options(
    const heur::FindOptions& options) const {
  core::AdversarialOptions adv;
  adv.demand_ub = demand_ub_;
  adv.pair_mask = mask_;
  adv.mip = core::find_mip_options(options);
  adv.seed_search_seconds = options.seed_search_seconds;
  return adv;
}

TeDpInstance::TeDpInstance(const heur::InstanceConfig& config)
    : TeInstanceBase(config), threshold_(config.threshold) {}

std::vector<double> TeDpInstance::quantize_levels() const {
  return {0.0, threshold_, demand_ub_};
}

std::unique_ptr<heur::GapOracle> TeDpInstance::make_oracle() const {
  te::DpConfig dp;
  dp.threshold = threshold_;
  dp.demand_ub = demand_ub_;
  return std::make_unique<te::DpGapOracle>(topo_, paths_, dp);
}

heur::GapFindResult TeDpInstance::find_gap(
    const heur::FindOptions& options) const {
  const core::AdversarialGapFinder finder(topo_, paths_);
  te::DpConfig dp;
  dp.threshold = threshold_;
  return finder.find_dp_gap(dp, adversarial_options(options));
}

heur::GapBoundResult TeDpInstance::bound_gap(
    const heur::FindOptions& options) const {
  te::DpConfig dp;
  dp.threshold = threshold_;
  return core::AdversarialGapFinder(topo_, paths_)
      .bound_dp_gap(dp, adversarial_options(options));
}

namespace {

std::string format3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::unique_ptr<heur::GapOracle> TeDpInstance::make_probe_oracle(
    const heur::ProbeOptions& options) const {
  te::DpConfig dp;
  dp.threshold = threshold_;
  dp.demand_ub = demand_ub_;
  dp.certify = options.certify;
  return std::make_unique<te::DpGapOracle>(topo_, paths_, dp);
}

heur::SolutionBreakdown TeDpInstance::explain_solution(
    const std::vector<double>& leader,
    const heur::ProbeOptions& options) const {
  heur::SolutionBreakdown out;
  te::DpConfig dp;
  dp.threshold = threshold_;
  dp.demand_ub = demand_ub_;
  dp.certify = options.certify;
  const auto [opt, heur] = te::DpGapOracle(topo_, paths_, dp).solve(leader);
  if (opt.status != lp::SolveStatus::Optimal) return out;

  out.available = true;
  out.certified = opt.certified && (!heur.feasible || heur.certified);

  const std::vector<double> opt_load =
      te::edge_loads(topo_, paths_, opt.path_flow);
  for (int e = 0; e < topo_.num_edges(); ++e) {
    const net::Edge& edge = topo_.edge(e);
    const double h = heur.feasible && e < static_cast<int>(
                                              heur.edge_load.size())
                         ? heur.edge_load[e]
                         : 0.0;
    const double o = opt_load[e];
    if (h <= 0.0 && o <= 0.0) continue;  // idle link: no story to tell
    heur::SaturationRow row;
    row.name = "link[" + std::to_string(edge.src) + "->" +
               std::to_string(edge.dst) + "]";
    row.capacity = edge.capacity;
    row.heur_load = h;
    row.opt_load = o;
    out.rows.push_back(row);
  }

  for (int k = 0; k < paths_.num_pairs(); ++k) {
    if (leader[k] <= 0.0) continue;  // masked / zero demand
    heur::ElementNote note;
    note.element = k;
    if (k < static_cast<int>(heur.pinned.size()) && heur.pinned[k]) {
      note.note = "pinned to shortest path (" + format3(leader[k]) +
                  " <= T=" + format3(threshold_) + ")";
    } else {
      note.note = "jointly routed (" + format3(leader[k]) + " > T=" +
                  format3(threshold_) + ")";
    }
    out.notes.push_back(note);
  }
  return out;
}

TePopInstance::TePopInstance(const heur::InstanceConfig& config)
    : TeInstanceBase(config), partitions_(config.partitions) {
  if (!config.pop_seeds.empty()) {
    seeds_ = config.pop_seeds;
  } else {
    // Instantiation seeds off the job's splitmix stream: identical for
    // any rerun of the same spec, decorrelated across jobs.
    std::uint64_t state = config.stream_seed;
    seeds_.reserve(static_cast<std::size_t>(config.pop_instances));
    for (int r = 0; r < config.pop_instances; ++r) {
      seeds_.push_back(util::splitmix64(state));
    }
  }
}

std::vector<double> TePopInstance::quantize_levels() const {
  return {0.0, demand_ub_};
}

std::unique_ptr<heur::GapOracle> TePopInstance::make_oracle() const {
  te::PopConfig pop;
  pop.num_partitions = partitions_;
  return std::make_unique<te::PopGapOracle>(topo_, paths_, pop, seeds_);
}

std::unique_ptr<heur::GapOracle> TePopInstance::make_probe_oracle(
    const heur::ProbeOptions& options) const {
  te::PopConfig pop;
  pop.num_partitions = partitions_;
  pop.certify = options.certify;
  return std::make_unique<te::PopGapOracle>(topo_, paths_, pop, seeds_);
}

heur::GapFindResult TePopInstance::find_gap(
    const heur::FindOptions& options) const {
  const core::AdversarialGapFinder finder(topo_, paths_);
  te::PopConfig pop;
  pop.num_partitions = partitions_;
  return finder.find_pop_gap(pop, seeds_, adversarial_options(options));
}

heur::GapBoundResult TePopInstance::bound_gap(
    const heur::FindOptions& options) const {
  te::PopConfig pop;
  pop.num_partitions = partitions_;
  return core::AdversarialGapFinder(topo_, paths_)
      .bound_pop_gap(pop, seeds_, adversarial_options(options));
}

}  // namespace metaopt::domains
