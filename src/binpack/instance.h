// heur::HeuristicInstance adapter for the bin-packing domain.
#pragma once

#include <memory>
#include <string>

#include "binpack/adversarial.h"
#include "binpack/binpack.h"
#include "heur/instance.h"

namespace metaopt::binpack {

/// "ffd" (decreasing) or "ff" (arrival order) behind the domain-neutral
/// interface. Leader variables are the item-major size entries.
class BinPackInstance final : public heur::HeuristicInstance {
 public:
  explicit BinPackInstance(BinPackConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    return heur::to_string(config_.decreasing ? heur::Heuristic::Ffd
                                              : heur::Heuristic::Ff);
  }
  [[nodiscard]] int num_leader_vars() const override {
    return config_.items * config_.dims;
  }
  [[nodiscard]] double leader_ub() const override { return config_.ub(); }
  [[nodiscard]] double gap_normalizer() const override {
    return static_cast<double>(config_.num_bins());
  }
  [[nodiscard]] std::string leader_var_name(int k) const override;
  [[nodiscard]] std::vector<double> quantize_levels() const override {
    return binpack::quantize_levels(config_);
  }
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_oracle() const override {
    return std::make_unique<BinPackGapOracle>(config_);
  }
  [[nodiscard]] heur::GapFindResult find_gap(
      const heur::FindOptions& options) const override {
    return find_ffd_gap(config_, options);
  }

  // ---- explain hooks ----
  // A core element is a whole item: masking it zeroes every one of its
  // size dimensions, the closest thing to deleting the item that keeps
  // the instance shape (and the encoding's index space) fixed.
  [[nodiscard]] int num_core_elements() const override {
    return config_.items;
  }
  [[nodiscard]] std::vector<int> core_element_vars(int e) const override;
  [[nodiscard]] std::string core_element_name(int e) const override {
    return "item[" + std::to_string(e) + "]";
  }
  [[nodiscard]] std::unique_ptr<heur::GapOracle> make_probe_oracle(
      const heur::ProbeOptions& options) const override;
  [[nodiscard]] heur::SolutionBreakdown explain_solution(
      const std::vector<double>& leader,
      const heur::ProbeOptions& options) const override;

  [[nodiscard]] const BinPackConfig& config() const { return config_; }

 private:
  BinPackConfig config_;
};

/// Maps the flat InstanceConfig onto a BinPackConfig ("ffd" when
/// `decreasing`, else "ff"); heur::make_instance's bin-packing case.
std::unique_ptr<heur::HeuristicInstance> make_binpack_instance(
    const heur::InstanceConfig& config, bool decreasing);

}  // namespace metaopt::binpack
