#include "explain/cluster.h"

#include <algorithm>
#include <map>
#include <utility>

namespace metaopt::explain {

std::string region_axis(const runner::JobResult& record) {
  const runner::JobSpec& spec = record.spec;
  if (runner::is_binpack(spec.heuristic)) {
    // Sweep grids tag bin-packing jobs with the first topology value of
    // the grid, which is meaningless for them — the shape is the axis.
    return "items=" + std::to_string(spec.items) +
           ",dims=" + std::to_string(spec.dims) +
           ",bins=" + std::to_string(spec.bins);
  }
  return spec.topology;
}

std::vector<Region> cluster_regions(
    const std::vector<runner::JobResult>& records, double min_norm_gap) {
  // std::map keys give the (heuristic, axis) ordering for free.
  std::map<std::pair<std::string, std::string>, Region> cells;
  for (const runner::JobResult& record : records) {
    const std::pair<std::string, std::string> key{
        runner::to_string(record.spec.heuristic), region_axis(record)};
    Region& region = cells[key];
    if (region.total_jobs == 0) {
      region.heuristic = key.first;
      region.axis = key.second;
    }
    ++region.total_jobs;
    const double norm_gap = record.result.normalized_gap;
    if (record.status != runner::JobStatus::Ok || norm_gap < min_norm_gap ||
        record.result.volumes.empty()) {
      continue;
    }
    ++region.jobs;
    region.mean_norm_gap += norm_gap;  // sum for now; divided below
    region.max_norm_gap = std::max(region.max_norm_gap, norm_gap);
    const double rep_gap = region.rep.result.normalized_gap;
    const bool better =
        region.jobs == 1 || norm_gap > rep_gap ||
        (norm_gap == rep_gap && record.spec.id < region.rep.spec.id);
    if (better) region.rep = record;
  }

  std::vector<Region> regions;
  for (auto& [key, region] : cells) {
    if (region.jobs == 0) continue;  // no gap-inducing job: not a region
    region.mean_norm_gap /= region.jobs;
    regions.push_back(std::move(region));
  }
  return regions;
}

int best_region(const std::vector<Region>& regions) {
  // Largest normalized gap first, ties to the lowest job id.
  const auto rank = [&regions](int i) {
    const runner::JobResult& rep = regions[static_cast<std::size_t>(i)].rep;
    return std::pair(-rep.result.normalized_gap, rep.spec.id);
  };
  int best = -1;
  for (int i = 0; i < static_cast<int>(regions.size()); ++i) {
    if (best < 0 || rank(i) < rank(best)) best = i;
  }
  return best;
}

}  // namespace metaopt::explain
