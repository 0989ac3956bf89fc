// Direct gap evaluation: gap(d) = OPT(d) - Heuristic(d).
//
// These oracles are the shared ground truth of the whole system: the
// black-box searchers (§3.4) climb on them, the white-box search seeds
// its incumbent with them, explain probes re-solve through them, and the
// tests compare the convex encodings against them.
//
// Each oracle owns one MaxFlowLp. An evaluate() solves OPT cold, then
// warm-starts every heuristic LP (DP's residual LP; each POP partition
// of each instantiation) from that OPT basis. The answer is therefore a
// pure function of the input vector, never of earlier evaluations, and
// a const oracle may be shared across threads.
#pragma once

#include <cstdint>
#include <vector>

#include "heur/gap.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/pop.h"

namespace metaopt::te {

// The result/oracle core is domain-neutral now (heur/gap.h); these
// aliases keep the established te:: spellings working. TE oracles use
// the default Maximize sense: gap() = opt - heur.
using GapResult = heur::GapResult;
using GapOracle = heur::GapOracle;

/// OPT vs Demand Pinning.
class DpGapOracle final : public GapOracle {
 public:
  DpGapOracle(const net::Topology& topo, const PathSet& paths,
              DpConfig config)
      : lp_(topo, paths), config_(config) {}

  [[nodiscard]] int num_leader_vars() const override {
    return lp_.paths().num_pairs();
  }
  [[nodiscard]] GapResult evaluate(
      const std::vector<double>& volumes) const override;

  [[nodiscard]] const DpConfig& config() const { return config_; }

 private:
  MaxFlowLp lp_;
  DpConfig config_;
};

/// OPT vs POP, averaged over a fixed set of partition instantiations
/// (the §3.2 expectation surrogate). A single seed reproduces the
/// "1 random partition" column of Fig. 5a.
class PopGapOracle final : public GapOracle {
 public:
  PopGapOracle(const net::Topology& topo, const PathSet& paths,
               PopConfig config, std::vector<std::uint64_t> seeds)
      : lp_(topo, paths), config_(config), seeds_(std::move(seeds)) {}

  [[nodiscard]] int num_leader_vars() const override {
    return lp_.paths().num_pairs();
  }
  /// heur = mean POP value across the instantiation seeds.
  [[nodiscard]] GapResult evaluate(
      const std::vector<double>& volumes) const override;

  /// Per-instantiation heuristic values (Fig. 5a generalization test),
  /// solved exactly as evaluate() solves them (warm from a cold OPT
  /// solve). When `certified` is given it is ANDed with every
  /// instantiation's certification verdict.
  [[nodiscard]] std::vector<double> per_instance_heur(
      const std::vector<double>& volumes, bool* certified = nullptr) const;

  [[nodiscard]] const PopConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const {
    return seeds_;
  }

 private:
  /// per_instance_heur with the partitions warm-started from `hint`.
  [[nodiscard]] std::vector<double> heur_values(
      const std::vector<double>& volumes, const lp::Basis* hint,
      bool* certified) const;

  MaxFlowLp lp_;
  PopConfig config_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace metaopt::te
