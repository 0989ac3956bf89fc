// Memoized certified probes over masked sub-instances.
//
// A probe answers one question: "does the sub-instance that keeps only
// these core elements (every other element zeroed) still exhibit the
// gap?" — by an exact heuristic-vs-OPT re-solve through the instance's
// probe oracle, certification on. The minimizer fires many probes over
// overlapping keep-sets (a deletion pass can re-ask a keep-set an
// earlier pass already answered), so outcomes are memoized by keep-set;
// the cache also makes repeated runs byte-for-byte free of solver
// nondeterminism concerns — each distinct sub-instance is solved
// exactly once.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "heur/instance.h"

namespace metaopt::explain {

/// Outcome of probing one keep-set.
struct ProbeOutcome {
  /// Adversarial gap of the sub-instance (GapResult::gap(); -1 when the
  /// heuristic is infeasible on it).
  double gap = -1.0;
  /// Every solver run inside this probe was certified and passed.
  bool certified = false;
  heur::GapResult result;
};

/// One witness being explained: owns the probe oracle, the memo table,
/// and the probe bookkeeping. Not thread-safe — minimization is a
/// sequential probe loop by design (each decision depends on the last).
class ProbeContext {
 public:
  /// `witness` is a full leader vector of `instance`. The instance must
  /// outlive the context (the oracle borrows it).
  ProbeContext(const heur::HeuristicInstance& instance,
               std::vector<double> witness,
               const heur::ProbeOptions& options = {});

  /// Elements with at least one nonzero witness entry, ascending — the
  /// starting core. Zero elements are already absent from the
  /// sub-instance, so minimization never needs to consider them.
  [[nodiscard]] const std::vector<int>& support() const { return support_; }

  /// Probes the sub-instance keeping exactly `keep` (element indices,
  /// any order; deduplicated and sorted internally). Memoized.
  ProbeOutcome probe(const std::vector<int>& keep);

  /// The witness with every element outside `keep` zeroed.
  [[nodiscard]] std::vector<double> masked_vector(
      const std::vector<int>& keep) const;

  [[nodiscard]] const heur::HeuristicInstance& instance() const {
    return instance_;
  }
  [[nodiscard]] const std::vector<double>& witness() const {
    return witness_;
  }
  [[nodiscard]] const heur::ProbeOptions& options() const { return options_; }

  /// Oracle evaluations actually performed (cache misses).
  [[nodiscard]] long probes() const { return probes_; }
  /// Probe calls answered from the memo table.
  [[nodiscard]] long cache_hits() const { return cache_hits_; }
  /// AND over every performed probe's certification verdict.
  [[nodiscard]] bool all_certified() const { return all_certified_; }
  /// Gap of every performed probe, in execution order (report summary).
  [[nodiscard]] const std::vector<double>& probe_gaps() const {
    return probe_gaps_;
  }

 private:
  const heur::HeuristicInstance& instance_;
  std::vector<double> witness_;
  heur::ProbeOptions options_;
  std::unique_ptr<heur::GapOracle> oracle_;
  std::vector<int> support_;
  std::map<std::vector<int>, ProbeOutcome> memo_;
  std::vector<double> probe_gaps_;
  long probes_ = 0;
  long cache_hits_ = 0;
  bool all_certified_ = true;
};

}  // namespace metaopt::explain
