// Domain-neutral gap evaluation: the leader/follower game of Eq. 1
// stripped of everything traffic-engineering specific.
//
// A heuristic domain (te/, binpack/, ...) exposes the quantity
// gap(x) = OPT(x) - Heuristic(x) (or Heuristic(x) - OPT(x) for
// minimization domains) over a box of leader variables x. These oracles
// are the shared ground truth of the whole system: the black-box
// searchers (§3.4) climb on them, the white-box search uses them as its
// branch-and-bound primal heuristic (so every incumbent is a genuine
// adversarial input), and the tests compare the convex encodings against
// them.
#pragma once

#include <atomic>
#include <vector>

#include "lp/types.h"

namespace metaopt::heur {

struct GapResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  double opt = 0.0;
  double heur = 0.0;
  /// False when the heuristic has no feasible output on this input
  /// (e.g. DP oversubscription, §5; first-fit running out of bins).
  bool heuristic_feasible = false;
  /// Objective sense of the underlying domain. Maximize (TE: flow)
  /// means the heuristic under-performs OPT and gap = opt - heur;
  /// Minimize (bin packing: bins used) flips it to heur - opt.
  lp::ObjSense sense = lp::ObjSense::Maximize;
  /// True when every exact solver run backing this evaluation (the OPT
  /// solve and any LPs inside the heuristic) ran with independent
  /// certification on and passed. Purely procedural heuristics (greedy
  /// first-fit) have no solver on their side and do not weaken it.
  bool certified = false;

  /// The adversarial objective (always "how much worse than OPT");
  /// -1 for inputs where the heuristic is infeasible so searchers steer
  /// away from them (the white-box method excludes them by
  /// construction).
  [[nodiscard]] double gap() const {
    if (!heuristic_feasible) return -1.0;
    return sense == lp::ObjSense::Maximize ? opt - heur : heur - opt;
  }
};

/// Interface the black-box searchers optimize over.
class GapOracle {
 public:
  virtual ~GapOracle() = default;
  /// Dimension of the leader-variable vector (demand volumes for TE,
  /// item-size entries for bin packing).
  [[nodiscard]] virtual int num_leader_vars() const = 0;
  [[nodiscard]] virtual GapResult evaluate(
      const std::vector<double>& leader) const = 0;
  /// Number of evaluate() calls so far (latency bookkeeping for Fig. 3).
  [[nodiscard]] long evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 protected:
  /// Bumps the evaluation count; call at the top of every evaluate()
  /// override. evaluate() is const and oracles are shared across
  /// threads (parallel B&B primal heuristics, concurrent searchers), so
  /// the bookkeeping must be an atomic — relaxed is enough, it is a
  /// statistic, not a synchronization point.
  void count_evaluation() const {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<long> evaluations_{0};
};

/// Restricts a base oracle to a subset of its leader variables: the
/// searcher sees only the included indices; excluded ones are fixed at
/// zero. The mask is a plain index mask over leader variables — demand
/// pairs for TE, (item, dimension) size entries for bin packing — which
/// keeps black-box baselines comparable to a white-box run that used a
/// support mask (AdversarialOptions::pair_mask, §3.3).
class MaskedGapOracle final : public GapOracle {
 public:
  MaskedGapOracle(const GapOracle& base, std::vector<bool> include);

  [[nodiscard]] int num_leader_vars() const override {
    return static_cast<int>(active_.size());
  }
  [[nodiscard]] GapResult evaluate(
      const std::vector<double>& leader) const override;

  /// Expands a reduced vector to the base oracle's full dimension.
  [[nodiscard]] std::vector<double> expand(
      const std::vector<double>& reduced) const;

 private:
  const GapOracle& base_;
  std::vector<int> active_;  ///< reduced index -> base index
};

}  // namespace metaopt::heur
