// HeuristicInstance: one heuristic domain behind a uniform interface.
//
// An instance binds a concrete problem setting (a TE topology with a DP
// threshold; a bin-packing shape with so-many items and dimensions) and
// exposes the operations every layer above needs:
//
//   * make_oracle()  — direct gap evaluation for the black-box searchers,
//   * find_gap()     — the single-shot white-box adversarial search,
//   * bound_gap()    — the §5 primal-dual upper bound (TE only).
//
// The families are a closed list (Heuristic below): each needs a
// hand-written encoding of its heuristic, so a new family is a new
// enumerator plus a case in make_instance, which domains/domains.cpp
// defines. search/ and runner/ depend only on this header, never on a
// domain; a binary that builds instances links metaopt_domains.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "heur/gap.h"
#include "lp/model.h"

namespace metaopt::heur {

/// The heuristic families: Demand Pinning and POP (TE), first-fit
/// decreasing and first-fit (bin packing).
enum class Heuristic { Dp, Pop, Ffd, Ff };

/// Every family, in the order error messages and --help list them.
inline constexpr std::array<Heuristic, 4> kHeuristics = {
    Heuristic::Dp, Heuristic::Pop, Heuristic::Ffd, Heuristic::Ff};

/// "dp", "pop", "ffd" or "ff".
const char* to_string(Heuristic h);

/// Parses a family name, case-insensitively; throws std::invalid_argument
/// "unknown heuristic '<name>' (known: dp, pop, ffd, ff)". Every name the
/// CLI, a sweep spec or a JSONL record carries is read through here.
Heuristic heuristic_from_string(const std::string& name);

/// The known names, comma-separated in kHeuristics order (error
/// messages, --help).
std::string known_heuristics();

/// True for the bin-packing families, which sweep the items axis and
/// ignore the topology/threshold/partitions/paths axes entirely.
[[nodiscard]] constexpr bool is_binpack(Heuristic h) {
  return h == Heuristic::Ffd || h == Heuristic::Ff;
}

/// Budgets for a single white-box gap-finding run (the domain-neutral
/// subset of what used to be core::AdversarialOptions).
struct FindOptions {
  /// Total solver wall budget, seconds (seeding included).
  double budget_seconds = 30.0;
  /// Independently certify the incumbent (check::certify_mip) and any
  /// direct re-solves backing the reported gap.
  bool certify = false;
  /// B&B worker threads (MipOptions::threads; not clamped inside a
  /// sweep, the shared scheduler bounds the total).
  int mip_threads = 1;
  /// Budget for the black-box pass that seeds the first incumbent
  /// (quantized climb + polish; §5's extremum-point observation).
  /// 0 disables seeding, which makes the run machine-load independent.
  double seed_search_seconds = 0.0;
};

/// Result of a white-box gap-finding run. Domain-neutral twin of the
/// original TE-only result struct (core::AdversarialResult is now an
/// alias of this type).
struct GapFindResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  /// Best verified gap (heuristic vs OPT, in the adversarial direction)
  /// and its input.
  double gap = 0.0;
  /// gap / HeuristicInstance::gap_normalizer() (total capacity for TE —
  /// the Fig. 3 metric; bin count for bin packing).
  double normalized_gap = 0.0;
  double opt_value = 0.0;
  double heur_value = 0.0;
  /// The adversarial leader vector (demand volumes / item sizes).
  std::vector<double> volumes;
  /// Proven upper bound on the achievable gap (== gap when Optimal).
  /// For domains whose embedded OPT is a relaxation (binpack), this
  /// bounds the embedded objective, which upper-bounds the true gap.
  double bound = 0.0;
  /// Incumbent trace: (seconds, objective) — the Fig. 3 white-box series.
  std::vector<std::pair<double, double>> trace;
  /// Single-shot model statistics (Fig. 6).
  lp::ModelStats stats;
  double seconds = 0.0;
  long nodes = 0;
  /// True when the solve ran with certification enabled and the
  /// incumbent passed check::certify_mip (see Solution::certified).
  bool certified = false;

  /// True when a (possibly non-optimal) adversarial input was found.
  [[nodiscard]] bool has_solution() const { return !volumes.empty(); }
};

/// Result of a primal-dual bound (§5): the McCormick-relaxed
/// strong-duality system contains every optimal follower response, so
/// maximizing the gap over it bounds the worst case from above, with no
/// complementarity pairs.
struct GapBoundResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  /// Upper bound on the achievable gap over the leader box.
  double upper_bound = 0.0;
  /// upper_bound / HeuristicInstance::gap_normalizer().
  double normalized_upper_bound = 0.0;
  double seconds = 0.0;
  lp::ModelStats stats;
  /// True when the solve ran with certification enabled and passed
  /// check::certify_mip (see Solution::certified).
  bool certified = false;
};

/// Everything make_instance may need to build an instance. One flat
/// struct rather than per-domain types so the sweep runner and the CLI
/// can fill it from a JobSpec / argv without knowing which keys a domain
/// reads; domains ignore the knobs that are not theirs.
struct InstanceConfig {
  /// Family name, read through heuristic_from_string (so "DP" is dp).
  std::string heuristic = "dp";

  // ---- shared knobs ----
  /// Leader box upper bound; <= 0 means the domain default (max link
  /// capacity for TE, bin capacity for bin packing).
  double leader_ub = 0.0;
  /// Restrict the adversarial support to ~this many leader variables
  /// (partially-specified goalposts, §3.3). 0 = all.
  int support = 0;
  /// Grid-coordinate seed (CLI --seed).
  std::uint64_t seed = 1;
  /// Decorrelated per-job stream; feeds all in-job randomness (POP
  /// instantiation seeds) when explicit seeds are not given.
  std::uint64_t stream_seed = 1;

  // ---- TE knobs ----
  std::string topology = "b4";
  int paths_per_pair = 2;
  double threshold = 50.0;  ///< DP pinning threshold
  int partitions = 2;       ///< POP partitions
  int pop_instances = 3;    ///< POP instantiations averaged (§3.2)
  /// Explicit POP instantiation seeds (CLI behaviour: base, base+1, ...).
  /// Empty = derive pop_instances seeds from stream_seed via splitmix.
  std::vector<std::uint64_t> pop_seeds;

  // ---- bin-packing knobs ----
  int items = 6;  ///< leader-controlled items
  int dims = 1;   ///< vector dimensions per item
  int bins = 0;   ///< bin budget; 0 = one bin per item
};

/// Options for explain-probe oracles (make_probe_oracle): exact
/// heuristic-vs-OPT re-solves of masked sub-instances, certified by
/// default — every probe's verdict is independently re-verified.
struct ProbeOptions {
  /// Certify every solve inside a probe (check::certify_lp/_mip).
  bool certify = true;
  /// Budget per embedded exact OPT solve (bin packing's assignment MIP;
  /// TE probes are single LPs and ignore it).
  double opt_budget_seconds = 10.0;
};

/// One constraint-side row of a solution breakdown: how loaded a
/// capacity-like constraint is under the heuristic vs under OPT (link
/// utilization for TE, per-dimension bin load for bin packing).
struct SaturationRow {
  std::string name;
  double capacity = 0.0;
  double heur_load = 0.0;
  double opt_load = 0.0;
};

/// A per-core-element diagnosis line ("pinned at 40 <= T=50",
/// "ffd bin 2, opt bin 0").
struct ElementNote {
  int element = -1;
  std::string note;
};

/// Domain-side explanation of one leader vector: which constraints
/// saturate under the heuristic vs OPT, and what happened to each
/// element. `available` is false for domains that do not implement the
/// breakdown (the report then omits the section).
struct SolutionBreakdown {
  bool available = false;
  bool certified = false;  ///< solves behind the breakdown were certified
  std::vector<SaturationRow> rows;
  std::vector<ElementNote> notes;
};

class HeuristicInstance {
 public:
  virtual ~HeuristicInstance() = default;

  /// The family's to_string name ("dp", "ffd", ...), whatever case the
  /// config spelled it in.
  [[nodiscard]] virtual std::string name() const = 0;
  /// Dimension of the leader vector.
  [[nodiscard]] virtual int num_leader_vars() const = 0;
  /// Upper bound of the leader box [0, ub]^n.
  [[nodiscard]] virtual double leader_ub() const = 0;
  /// Denominator for normalized gaps (TE: total capacity; binpack: bin
  /// budget).
  [[nodiscard]] virtual double gap_normalizer() const = 0;
  /// Human-readable name of leader variable k (CLI incumbent printing).
  [[nodiscard]] virtual std::string leader_var_name(int k) const = 0;
  /// Quantization levels where worst-case gaps concentrate (§5); feeds
  /// search::quantized_climb.
  [[nodiscard]] virtual std::vector<double> quantize_levels() const = 0;
  /// Direct-evaluation oracle. The oracle borrows this instance: keep
  /// the instance alive while the oracle is in use.
  [[nodiscard]] virtual std::unique_ptr<GapOracle> make_oracle() const = 0;
  /// The single-shot white-box adversarial search (Eq. 1).
  [[nodiscard]] virtual GapFindResult find_gap(
      const FindOptions& options) const = 0;
  /// The primal-dual upper bound on the gap (§5), solved within
  /// options.budget_seconds; seeding does not apply. Default: throws
  /// std::invalid_argument naming the heuristic, for domains without
  /// one (bin packing).
  [[nodiscard]] virtual GapBoundResult bound_gap(
      const FindOptions& options) const;

  // ---- explain hooks (sub-instance masking + probes) ----
  //
  // The explain subsystem shrinks a witness to a minimal adversarial
  // core by probing *sub-instances*: leader vectors with the masked
  // elements zeroed, re-solved exactly. Masking is phrased over "core
  // elements" — the unit an operator would delete from an input — which
  // is a demand pair for TE but a whole item (all of its size
  // dimensions) for bin packing.

  /// Number of maskable elements. Defaults to one element per leader
  /// variable.
  [[nodiscard]] virtual int num_core_elements() const {
    return num_leader_vars();
  }
  /// Leader-variable indices belonging to element `e`.
  [[nodiscard]] virtual std::vector<int> core_element_vars(int e) const {
    return {e};
  }
  /// Human-readable name of element `e` (report/CLI output).
  [[nodiscard]] virtual std::string core_element_name(int e) const {
    return leader_var_name(e);
  }
  /// Oracle for explain probes: identical ground truth to make_oracle()
  /// but with certification (and probe budgets) threaded through. The
  /// base fallback ignores the options; domains override to honor them.
  [[nodiscard]] virtual std::unique_ptr<GapOracle> make_probe_oracle(
      const ProbeOptions& options) const {
    (void)options;
    return make_oracle();
  }
  /// Domain-side breakdown of one leader vector (saturating constraints,
  /// per-element placement notes). Default: not available.
  [[nodiscard]] virtual SolutionBreakdown explain_solution(
      const std::vector<double>& leader, const ProbeOptions& options) const {
    (void)leader;
    (void)options;
    return {};
  }
};

/// Builds an instance of config.heuristic; throws std::invalid_argument
/// on an unknown name (heuristic_from_string). Defined in
/// domains/domains.cpp, the one layer that links every family, so
/// callers link metaopt_domains.
[[nodiscard]] std::unique_ptr<HeuristicInstance> make_instance(
    const InstanceConfig& config);

}  // namespace metaopt::heur
