// Branch-and-bound over the discrete structure the paper's single-shot
// rewrite produces: binary variables (DP's big-M pinning conditionals,
// bin packing's assignments) and complementarity pairs (the KKT multiplicative
// constraints that Gurobi models as SOS1 — §3.1).
//
// The search is best-bound first. Each node relaxation is a bound change
// on one per-worker lp::BoundedForm, re-solved by the revised dual
// simplex from the parent's optimal basis (SimplexSolver's warm-start
// ladder: cold revised simplex when there is no usable basis). A node
// whose LP fails (Error, IterationLimit) is abandoned, not pruned: its
// bound stays open and the tree can no longer claim Optimal or
// Infeasible (counted in bnb.nodes_failed).
//
// With MipOptions::threads > 1 the same search runs as that many workers
// (runner::Scheduler::fork_join, the calling thread being one of them)
// over one shared best-bound queue: per-worker simplex engines, a
// CAS-claimed atomic incumbent, and an in-flight counter that separates
// "queue momentarily empty" from "tree exhausted". See DESIGN.md
// ("Parallel tree search") for the full protocol and the determinism
// contract.
//
// A paper-specific facility: a primal-heuristic callback, used by the
// metaopt layer to turn every node relaxation into a *genuine*
// adversarial input by re-evaluating the true gap with direct solves — so
// every incumbent is valid even when the relaxation bound is loose. The
// search stops on its time or node budget (MipOptions), or when the
// incumbent/bound gap closes to tol::kRelGap / tol::kAbsGap; binaries are
// integral within tol::kIntTol and complementarity pairs hold within
// tol::kComplTol.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solution.h"

namespace metaopt::mip {

struct MipOptions {
  double time_limit_seconds = 60.0;
  long max_nodes = 100000000;
  /// Run bound-propagation presolve at every node: prunes provably
  /// infeasible nodes without an LP solve and shrinks node LPs by fixing
  /// variables (big-M indicator rows propagate well).
  bool use_presolve = true;
  /// Lint the model before the search and run check::certify_mip on the
  /// final incumbent, recording the outcome in Solution::certified
  /// (failures are logged at Error level). On by default in Debug
  /// builds, opt-in for Release.
  bool certify = lp::kCertifyByDefault;
  /// Worker threads exploring the tree (CLI: --mip-threads). 1 (the
  /// default) runs the classic serial search on the calling thread; N>1
  /// runs N workers over a shared best-bound queue, each with its own
  /// simplex engine. Answers are thread-count-invariant for trees solved
  /// to proven optimality: every node LP is a pure function of (node
  /// box, hint basis), so the tree — and the certified optimal objective
  /// — is bit-identical for any N; only exploration order, node counts
  /// and early-stop paths may differ. Not clamped inside a sweep:
  /// helpers come from the process-wide scheduler, so a SweepRunner job
  /// adds no threads beyond max(sweep width, mip threads).
  int threads = 1;
  lp::SimplexOptions lp;
};

struct MipCallbacks {
  /// Primal heuristic: given node-relaxation values (model var space),
  /// return a feasible assignment and its objective, or nullopt. The
  /// returned assignment is trusted to be feasible for the *original*
  /// problem semantics (the metaopt layer constructs it from direct
  /// solves); it is still screened by Model::max_violation before
  /// acceptance. With MipOptions::threads > 1 this is
  /// called concurrently from worker threads — it must be reentrant
  /// (the metaopt layer's heuristics are: they only read shared const
  /// state and build local solves).
  std::function<std::optional<std::pair<double, std::vector<double>>>(
      const std::vector<double>&)>
      primal_heuristic;
  /// Invoked on every accepted incumbent: (objective, seconds, values).
  /// Serialized under the incumbent lock even when threads > 1, so it
  /// may mutate caller state without extra locking.
  std::function<void(double, double, const std::vector<double>&)> on_incumbent;
  /// Feasible starting solutions (objective, values) accepted before the
  /// search starts — e.g. seeds from a cheap black-box pass. Screened
  /// like heuristic solutions.
  std::vector<std::pair<double, std::vector<double>>> initial_incumbents;
};

class BranchAndBound {
 public:
  explicit BranchAndBound(MipOptions options = {}) : options_(options) {}

  /// Solves `model` (linear objective; binaries and complementarity pairs
  /// enforced). Returns the best incumbent with `best_bound` set to the
  /// proven bound. Status: Optimal (gap closed), Feasible (stopped early,
  /// or some node LP failed, with an incumbent), Infeasible, Unbounded,
  /// TimeLimit (stopped early, no incumbent), or Error (some node LP
  /// failed and there is no incumbent).
  [[nodiscard]] lp::Solution solve(const lp::Model& model,
                                   const MipCallbacks& callbacks = {}) const;

  [[nodiscard]] const MipOptions& options() const { return options_; }

 private:
  MipOptions options_;
};

}  // namespace metaopt::mip
