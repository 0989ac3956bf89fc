// Parametric inner solves and KKT-point assembly.
//
// Given concrete values for the outer variables, an InnerProblem becomes
// an ordinary LP. InnerLp builds that LP once per (inner problem, outer
// model) and re-solves it at any outer values by changing bounds only:
//
//   columns: the decision variables, in inner.decision_vars() order,
//            then one column per outer variable the inner rows reference
//            (in order of first reference), fixed at lb = ub = its value;
//   rows:    inner.constraints(), in order, over those columns;
//   objective: the inner objective's decision terms (outer terms are
//            constant in the inner argmax and dropped).
//
// Every solve is a dual simplex from a fixed anchor basis: the cold
// optimum at all-zero outer values, computed once at construction. It
// never warm-starts from an earlier solve, so each answer is a pure
// function of the outer values (see DESIGN.md "Direct solves").
//
// Because it is, InnerLp keeps its kCacheEntries most recent Optimal
// answers, keyed by the bit patterns of the outer columns' values (the
// values bounds_at reads). A call whose values match an entry bit for
// bit returns that entry with no simplex work: the answer a re-solve
// would return. Other statuses are never stored. Only a miss opens a
// `kkt.inner_solve` span; a hit counts `kkt.inner_cache_hits`.
//
// assemble_kkt_point() then lifts that direct solution into a *complete*
// assignment of the KKT system emitted by emit_kkt — primal values,
// multipliers (from simplex duals and reduced costs), and slacks. This is
// how the metaopt layer turns each branch-and-bound relaxation point into
// a genuine incumbent: re-evaluate the candidate input with direct
// solves, then hand branch-and-bound a fully feasible single-shot
// assignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kkt/inner_problem.h"
#include "kkt/kkt_rewriter.h"
#include "lp/basis.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solution.h"
#include "lp/warm_start_pool.h"

namespace metaopt::kkt {

/// Result of a parametric solve. `solution.values[j]`, and
/// `solution.reduced_costs[j]`, belong to inner.decision_vars()[j] for
/// j < decision_vars().size(); `solution.duals` follow
/// inner.constraints() order.
struct ParametricSolve {
  lp::Solution solution;
  [[nodiscard]] bool ok() const {
    return solution.status == lp::SolveStatus::Optimal;
  }
};

/// One follower's inner LP, built once and re-solved at many outer
/// points (see the file comment for its layout).
///
/// Thread-safety: solve() is const and may run concurrently; each call
/// borrows a revised-simplex context from an lp::WarmStartPool. A solve
/// from the anchor (or cold) is a pure function of the outer values, so
/// which context serves it never changes the answer. One mutex per
/// InnerLp guards the answer cache; no simplex solve runs under it. Two
/// calls that miss on the same values both solve, get the same bits,
/// and the first to finish stores them.
class InnerLp {
 public:
  /// Capacity of the answer cache. On perfbench's seed-1 `find_te`, 8
  /// entries answer 67.5% of calls and an unbounded cache 72%, but the
  /// unbounded one raised peak RSS by 28% (DESIGN.md "Inner answer
  /// cache").
  static constexpr std::size_t kCacheEntries = 8;

  /// Builds the LP and solves its anchor. `inner` and `outer` must
  /// outlive the InnerLp. `options` are the solver's (duals are always
  /// on: assembly needs them). When the anchor solve is not Optimal,
  /// every solve runs cold. Throws std::invalid_argument for quadratic
  /// objectives (no parametric-QP support; the inner problems of every
  /// family are linear).
  InnerLp(const InnerProblem& inner, const lp::Model& outer,
          lp::SimplexOptions options = {});
  InnerLp(const InnerLp&) = delete;
  InnerLp& operator=(const InnerLp&) = delete;

  /// Solves at `outer_values` (size outer.num_vars()), or returns the
  /// cached answer for the same values.
  [[nodiscard]] ParametricSolve solve(
      const std::vector<double>& outer_values) const;

  /// Column bounds of a solve at `outer_values`: decision columns keep
  /// their outer bounds, outer columns are fixed at their values.
  void bounds_at(const std::vector<double>& outer_values,
                 std::vector<double>& lb, std::vector<double>& ub) const;

  [[nodiscard]] const InnerProblem& inner() const { return inner_; }
  [[nodiscard]] const lp::Model& outer() const { return outer_; }
  /// The LP itself; its own bounds are those of the anchor.
  [[nodiscard]] const lp::Model& model() const { return model_; }
  /// Column of outer variable `v` when it is a decision variable, else
  /// -1.
  [[nodiscard]] int decision_column(lp::VarId v) const {
    return decision_col_[v];
  }

 private:
  const InnerProblem& inner_;
  const lp::Model& outer_;
  lp::Model model_;
  /// Outer variable of each outer column, in column order after the
  /// decision columns.
  std::vector<lp::VarId> outer_col_var_;
  /// Per outer VarId: its decision column, or -1.
  std::vector<int> decision_col_;
  lp::SimplexOptions options_;
  lp::WarmStartPool pool_;
  /// Optimal basis at all-zero outer values; null when that solve was
  /// not Optimal.
  std::shared_ptr<const lp::Basis> anchor_;

  /// One Optimal answer and the bit patterns of the outer columns'
  /// values it was solved at, in column order.
  struct CacheEntry {
    std::vector<std::uint64_t> key;
    std::shared_ptr<const lp::Solution> solution;
  };
  [[nodiscard]] bool key_matches(const std::vector<std::uint64_t>& key,
                                 const std::vector<double>& outer_values) const;
  /// The entry for `outer_values`, moved to the front; null on a miss.
  [[nodiscard]] std::shared_ptr<const lp::Solution> cached(
      const std::vector<double>& outer_values) const;
  /// Stores `solution` at the front, evicting the oldest entry when full.
  void store(const std::vector<double>& outer_values,
             const lp::Solution& solution) const;

  mutable std::mutex cache_mutex_;
  /// Most recently used first; at most kCacheEntries.
  mutable std::vector<CacheEntry> cache_;
};

/// Writes a complete feasible point of the emitted KKT system into
/// `assignment` (which must already hold the outer-parameter values
/// `lp` was solved at): decision variables, duals, and slacks.
/// Returns false when assembly fails — e.g. a multiplier exceeds its
/// declared dual bound, in which case the caller simply skips this
/// incumbent (soundness is preserved; only node pruning gets weaker).
/// Decision variables with finite upper bounds are unsupported (their
/// bound-row multipliers are not recoverable from the simplex), and
/// false is returned.
bool assemble_kkt_point(const InnerLp& lp, const KktArtifacts& art,
                        const ParametricSolve& ps,
                        std::vector<double>& assignment);

}  // namespace metaopt::kkt
