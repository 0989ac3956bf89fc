// heur::HeuristicInstance adapters for the TE domain (DP and POP).
//
// Each instance owns its topology and path set (the finder only borrows
// them) and translates the domain-neutral FindOptions/InstanceConfig
// knobs into core::AdversarialOptions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adversarial.h"
#include "heur/instance.h"
#include "net/topology.h"
#include "te/path_set.h"

namespace metaopt::domains {

/// Shared TE plumbing: topology, path set, support mask, leader box.
class TeInstanceBase : public heur::HeuristicInstance {
 public:
  explicit TeInstanceBase(const heur::InstanceConfig& config);

  [[nodiscard]] int num_leader_vars() const override {
    return paths_.num_pairs();
  }
  [[nodiscard]] double leader_ub() const override { return demand_ub_; }
  [[nodiscard]] double gap_normalizer() const override {
    return topo_.total_capacity();
  }
  [[nodiscard]] std::string leader_var_name(int k) const override;

  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] const te::PathSet& paths() const { return paths_; }
  /// Support mask over pairs (empty = all; InstanceConfig::support).
  [[nodiscard]] const std::vector<bool>& pair_mask() const { return mask_; }

 protected:
  [[nodiscard]] core::AdversarialOptions adversarial_options(
      const heur::FindOptions& options) const;

  net::Topology topo_;
  te::PathSet paths_;
  std::vector<bool> mask_;
  double demand_ub_ = 0.0;
};

/// OPT vs Demand Pinning ("dp").
class TeDpInstance final : public TeInstanceBase {
 public:
  explicit TeDpInstance(const heur::InstanceConfig& config);

  [[nodiscard]] std::string name() const override { return "dp"; }
  [[nodiscard]] std::vector<double> quantize_levels() const override;
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_oracle() const override;
  [[nodiscard]] heur::GapFindResult find_gap(
      const heur::FindOptions& options) const override;
  [[nodiscard]] heur::GapBoundResult bound_gap(
      const heur::FindOptions& options) const override;
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_probe_oracle(
      const heur::ProbeOptions& options) const override;
  /// Link-utilization rows (heuristic allocation vs OPT) plus a note per
  /// nonzero demand: pinned (and onto which shortest path) or jointly
  /// routed.
  [[nodiscard]] heur::SolutionBreakdown explain_solution(
      const std::vector<double>& leader,
      const heur::ProbeOptions& options) const override;

 private:
  double threshold_;
};

/// OPT vs POP ("pop"), averaged over the instantiation seeds.
class TePopInstance final : public TeInstanceBase {
 public:
  explicit TePopInstance(const heur::InstanceConfig& config);

  [[nodiscard]] std::string name() const override { return "pop"; }
  [[nodiscard]] std::vector<double> quantize_levels() const override;
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_oracle() const override;
  [[nodiscard]] heur::GapFindResult find_gap(
      const heur::FindOptions& options) const override;
  [[nodiscard]] heur::GapBoundResult bound_gap(
      const heur::FindOptions& options) const override;
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_probe_oracle(
      const heur::ProbeOptions& options) const override;

  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const {
    return seeds_;
  }

 private:
  int partitions_;
  std::vector<std::uint64_t> seeds_;
};

/// Loads a named builtin topology (b4/abilene/swan/fig1), a ring
/// circulant:<n>:<k> (net::topologies::circulant(n, k)) or a file path.
/// Throws std::invalid_argument naming a malformed circulant spec.
net::Topology load_topology(const std::string& spec);

/// Spreads ~`target` enabled pairs evenly over `num_pairs` by striding
/// (the §3.3 partially-specified-goalpost support mask). Empty = all.
std::vector<bool> make_support_mask(int num_pairs, int target);

}  // namespace metaopt::domains
