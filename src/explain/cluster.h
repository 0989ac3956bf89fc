// Adversarial-region clustering over finished sweep campaigns.
//
// A sweep JSONL file is a grid of gap-finding jobs; the explain view of
// it groups the gap-inducing jobs into *regions* — one per (heuristic,
// instance axis) cell, where the axis is the topology for TE heuristics
// and the items/dims/bins shape for bin packing — and picks a
// representative witness per region (largest normalized gap, ties to
// the lowest job id, so the pick is total-order deterministic). The
// representative is what `metaopt explain` minimizes when pointed at a
// campaign file.
#pragma once

#include <string>
#include <vector>

#include "runner/sweep_runner.h"

namespace metaopt::explain {

/// One cluster of gap-inducing sweep jobs.
struct Region {
  std::string heuristic;
  /// Instance axis: topology name (TE) or "items=I,dims=D,bins=B".
  std::string axis;
  /// Gap-inducing jobs in the cell (norm_gap >= min threshold).
  int jobs = 0;
  /// All jobs in the cell, gap-inducing or not.
  int total_jobs = 0;
  double max_norm_gap = 0.0;
  double mean_norm_gap = 0.0;  ///< over the gap-inducing jobs
  /// Representative witness: the full record (rep.spec.id is its job).
  runner::JobResult rep;
};

/// The clustering axis of one record (see Region::axis).
[[nodiscard]] std::string region_axis(const runner::JobResult& record);

/// Clusters `records` into regions, keeping cells with at least one ok
/// job whose norm_gap >= `min_norm_gap` and a non-empty witness.
/// Ordered by (heuristic, axis) ascending — byte-stable output.
[[nodiscard]] std::vector<Region> cluster_regions(
    const std::vector<runner::JobResult>& records, double min_norm_gap);

/// The region whose representative has the globally largest normalized
/// gap (ties to lowest rep job id); -1 when `regions` is empty.
[[nodiscard]] int best_region(const std::vector<Region>& regions);

}  // namespace metaopt::explain
