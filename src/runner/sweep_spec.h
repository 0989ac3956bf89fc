// Declarative description of a gap-finding campaign: the cartesian grid
// topology × heuristic × threshold/partitions × paths × seed, plus
// per-job budgets and an optional job-count cap.
//
// The CLI (`metaopt sweep`, including the figure specs in
// bench/figures/), the figures program and the tests all expand a
// SweepSpec the same way, so a campaign is reproducible from its spec
// alone.
//
// Determinism: expand_spec() assigns job ids in a fixed nested order and
// derives one decorrelated `stream_seed` per job with a splitmix-style
// hash of (spec.base_seed, job id) — see util::derive_seed. Everything
// random inside a job (POP instantiation seeds) comes from that stream,
// so results do not depend on thread count or scheduling order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace metaopt::runner {

enum class Heuristic { Dp, Pop, Ffd, Ff };

const char* to_string(Heuristic h);

/// Parses "dp", "pop", "ffd", or "ff" (case-insensitive); throws
/// std::invalid_argument listing the known names.
Heuristic heuristic_from_string(const std::string& name);

/// True for the bin-packing families, which sweep the items axis and
/// ignore the topology/threshold/partitions/paths axes entirely.
[[nodiscard]] constexpr bool is_binpack(Heuristic h) {
  return h == Heuristic::Ffd || h == Heuristic::Ff;
}

struct SweepSpec {
  // ---- grid axes (cartesian product) ----
  std::vector<std::string> topologies{"b4"};
  std::vector<Heuristic> heuristics{Heuristic::Dp};
  /// DP pinning thresholds (absolute demand units). Only the DP axis.
  std::vector<double> thresholds{50.0};
  /// POP partition counts. Only the POP axis.
  std::vector<int> partitions{2};
  /// Bin-packing item counts. Only the FFD/FF axis.
  std::vector<int> items{6};
  std::vector<int> paths_per_pair{2};
  /// Seed coordinates: one job per seed; the job's RNG stream is derived
  /// from (base_seed, job id), the seed is a plain grid coordinate.
  std::vector<std::uint64_t> seeds{1};

  // ---- per-job configuration (shared across the grid) ----
  /// POP instantiations averaged per job (§3.2).
  int pop_instances = 3;
  /// Restrict the adversarial support to ~pairs demand pairs
  /// (partially-specified goalposts, §3.3). 0 = all pairs.
  int pairs = 0;
  /// Solver wall budget per job, seconds.
  double budget_seconds = 30.0;
  /// Demand box upper bound; 0 = max link capacity (TE) or the bin
  /// capacity (FFD/FF — the generic leader-box bound).
  double demand_ub = 0.0;
  /// Bin-packing: vector dimensions per item (FFD/FF jobs only).
  int dims = 1;
  /// Bin-packing: bin budget; 0 = one bin per item (FFD/FF jobs only).
  int bins = 0;
  /// Fraction of the per-job budget spent on the black-box seeding pass
  /// when `deterministic` is false (seed_search_seconds = fraction *
  /// budget). 0 disables seeding even for non-deterministic jobs.
  double seed_search_fraction = 0.3;
  /// Root of the per-job splitmix seed streams.
  std::uint64_t base_seed = 1;
  /// When true, disables the wall-clock-budgeted black-box seeding pass
  /// inside each job (AdversarialOptions::seed_search_seconds = 0) so a
  /// job's result depends only on its spec, never on machine load —
  /// required for byte-identical reruns. When false, jobs seed
  /// incumbents exactly like the single-shot CLI path.
  bool deterministic = true;
  /// Independently certify every solve (check::certify_mip).
  bool certify = false;
  /// B&B worker threads per job (MipOptions::threads). Helpers come
  /// from the one process-wide pool (runner::Scheduler), so a sweep of
  /// width T with mip_threads M runs on max(T, M) threads total, the
  /// calling thread included — never T x M.
  /// Answers are thread-count-invariant (see mip/branch_and_bound.h),
  /// so this never changes results.
  int mip_threads = 1;

  // ---- campaign shaping ----
  /// Hard cap on the number of jobs after expansion (0 = unlimited).
  int max_jobs = 0;
};

/// One fully-instantiated cell of the grid.
struct JobSpec {
  int id = 0;
  std::string topology;
  Heuristic heuristic = Heuristic::Dp;
  double threshold = 0.0;    ///< DP only
  int num_partitions = 0;    ///< POP only
  int items = 0;             ///< FFD/FF only
  int dims = 1;              ///< FFD/FF only
  int bins = 0;              ///< FFD/FF only
  int paths_per_pair = 2;
  std::uint64_t seed = 1;    ///< grid coordinate
  std::uint64_t stream_seed = 0;  ///< derived; feeds all in-job randomness
  int pop_instances = 3;
  int pairs = 0;
  double budget_seconds = 30.0;
  double demand_ub = 0.0;
  double seed_search_fraction = 0.3;
  bool deterministic = true;
  bool certify = false;
  int mip_threads = 1;

  /// The swept x-coordinate: threshold for DP, partitions for POP,
  /// item count for FFD/FF.
  [[nodiscard]] double axis_value() const {
    switch (heuristic) {
      case Heuristic::Dp: return threshold;
      case Heuristic::Pop: return static_cast<double>(num_partitions);
      case Heuristic::Ffd:
      case Heuristic::Ff: return static_cast<double>(items);
    }
    return 0.0;
  }
};

/// Expands the grid into jobs with stable ids (nested order: topology,
/// heuristic, threshold|partitions|items, paths, seed) and derived
/// stream seeds. FFD/FF jobs ignore the topology and paths axes (one job
/// per items x seed cell, tagged with the first topology/paths values so
/// ids stay stable). Honors max_jobs. Throws std::invalid_argument on an
/// empty axis or non-positive per-job parameters.
std::vector<JobSpec> expand_spec(const SweepSpec& spec);

/// Builds a SweepSpec from `key=value` tokens (the `metaopt sweep`
/// grammar, also accepted one-per-line from a spec file):
///
///   topology=b4,swan      heuristic=dp,pop,ffd  threshold=25,50,100
///   partitions=2,4,8      items=4..12           paths=2
///   seed=1..8             instances=3           pairs=12
///   budget=20             demand-ub=0           dims=1
///   bins=0                base-seed=1           deterministic=1
///   certify=0             max-jobs=100          seed-fraction=0.3
///   mip-threads=1
///
/// Later tokens win: `budget=20 budget=0.5` sets 0.5, so arguments after
/// a spec file's tokens override them. Integer axes accept `lo..hi`
/// inclusive ranges; comma lists work for every axis. Integer keys
/// (counts and seeds) take non-negative decimal integers only, so
/// `dims=1.5` or `seed=-1` is an error, not a rounding.
/// Unknown keys and malformed values throw std::invalid_argument with
/// the offending token in the message.
SweepSpec parse_sweep_spec(const std::vector<std::string>& tokens);

}  // namespace metaopt::runner
