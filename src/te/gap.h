// Direct gap evaluation: gap(d) = OPT(d) - Heuristic(d).
//
// These oracles are the shared ground truth of the whole system: the
// black-box searchers (§3.4) climb on them, the white-box search seeds
// its incumbent with them, explain probes re-solve through them, and the
// tests compare the convex encodings against them.
//
// Each oracle owns one MaxFlowLp, and an evaluate() solves OPT cold from
// the greedy-routing start basis MaxFlowLp builds from the input. DP's
// residual LP then warm-starts from that OPT basis; every POP partition
// of every instantiation is a small LP of its own and solves cold from
// its own greedy start, which costs fewer pivots than a dual simplex
// from OPT's basis (DESIGN.md, "Direct solves"). The answer is
// therefore a pure function of the input vector, never of earlier
// evaluations, and a const oracle may be shared across threads.
#pragma once

#include <cstdint>
#include <vector>

#include "heur/gap.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/pop.h"

namespace metaopt::te {

// The result/oracle core is domain-neutral (heur/gap.h). TE oracles use
// the default Maximize sense: gap() = opt - heur.

/// OPT vs Demand Pinning.
class DpGapOracle final : public heur::GapOracle {
 public:
  DpGapOracle(const net::Topology& topo, const PathSet& paths,
              DpConfig config)
      : lp_(topo, paths), config_(config) {}

  [[nodiscard]] int num_leader_vars() const override {
    return lp_.paths().num_pairs();
  }
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>& volumes) const override;

  /// The two solves behind one evaluation: OPT cold from its greedy
  /// start, then DP's residual LP warm from OPT's basis. `dp` keeps its
  /// default (status Error) when OPT is not Optimal.
  struct Solves {
    MaxFlowResult opt;
    DpResult dp;
  };
  /// Solves `volumes` exactly as evaluate() does, with the flows and
  /// loads an explanation needs (not counted as an evaluation).
  [[nodiscard]] Solves solve(const std::vector<double>& volumes) const;

  [[nodiscard]] const DpConfig& config() const { return config_; }

 private:
  MaxFlowLp lp_;
  DpConfig config_;
};

/// OPT vs POP, averaged over a fixed set of partition instantiations
/// (the §3.2 expectation surrogate). A single seed reproduces the
/// "1 random partition" column of Fig. 5a.
class PopGapOracle final : public heur::GapOracle {
 public:
  PopGapOracle(const net::Topology& topo, const PathSet& paths,
               PopConfig config, std::vector<std::uint64_t> seeds)
      : lp_(topo, paths), config_(config), seeds_(std::move(seeds)) {}

  [[nodiscard]] int num_leader_vars() const override {
    return lp_.paths().num_pairs();
  }
  /// heur = mean POP value across the instantiation seeds.
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>& volumes) const override;

  /// Per-instantiation heuristic values (Fig. 5a generalization test),
  /// solved exactly as evaluate() solves them; empty when some partition
  /// LP is not Optimal. When `certified` is given it is ANDed with every
  /// instantiation's certification verdict.
  [[nodiscard]] std::vector<double> per_instance_heur(
      const std::vector<double>& volumes, bool* certified = nullptr) const;

  [[nodiscard]] const PopConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const {
    return seeds_;
  }

 private:
  MaxFlowLp lp_;
  PopConfig config_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace metaopt::te
