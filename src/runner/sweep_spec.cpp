#include "runner/sweep_spec.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/rng.h"
#include "util/string_util.h"

namespace metaopt::runner {

std::vector<JobSpec> expand_spec(const SweepSpec& spec) {
  if (spec.topologies.empty() || spec.heuristics.empty() ||
      spec.paths_per_pair.empty() || spec.seeds.empty()) {
    throw std::invalid_argument("sweep spec: empty grid axis");
  }
  if (spec.budget_seconds <= 0.0) {
    throw std::invalid_argument("sweep spec: budget must be positive");
  }
  for (int paths : spec.paths_per_pair) {
    if (paths <= 0) {
      throw std::invalid_argument("sweep spec: paths must be > 0");
    }
  }
  if (spec.pop_instances <= 0) {
    throw std::invalid_argument("sweep spec: instances must be positive");
  }
  if (spec.seed_search_fraction < 0.0 || spec.seed_search_fraction >= 1.0) {
    throw std::invalid_argument("sweep spec: seed-fraction must be in [0, 1)");
  }
  if (spec.mip_threads <= 0) {
    throw std::invalid_argument("sweep spec: mip-threads must be positive");
  }
  if (spec.dims <= 0) {
    throw std::invalid_argument("sweep spec: dims must be positive");
  }
  if (spec.bins < 0) {
    throw std::invalid_argument("sweep spec: bins must be >= 0");
  }

  std::vector<JobSpec> jobs;
  int id = 0;
  const auto push = [&](const std::string& topo, Heuristic h, double threshold,
                        int num_partitions, int items, int paths,
                        std::uint64_t seed) {
    if (spec.max_jobs > 0 && static_cast<int>(jobs.size()) >= spec.max_jobs) {
      return;
    }
    JobSpec job;
    job.id = id++;
    job.topology = topo;
    job.heuristic = h;
    job.threshold = threshold;
    job.num_partitions = num_partitions;
    job.items = items;
    job.dims = spec.dims;
    job.bins = spec.bins;
    job.paths_per_pair = paths;
    job.seed = seed;
    // Mix the seed coordinate in as a second stream index so two jobs
    // that differ only in `seed` get fully decorrelated streams.
    job.stream_seed = util::derive_seed(
        util::derive_seed(spec.base_seed, static_cast<std::uint64_t>(job.id)),
        seed);
    job.pop_instances = spec.pop_instances;
    job.pairs = spec.pairs;
    job.budget_seconds = spec.budget_seconds;
    job.demand_ub = spec.demand_ub;
    job.seed_search_fraction = spec.seed_search_fraction;
    job.deterministic = spec.deterministic;
    job.certify = spec.certify;
    job.mip_threads = spec.mip_threads;
    jobs.push_back(std::move(job));
  };

  for (const std::string& topo : spec.topologies) {
    for (Heuristic h : spec.heuristics) {
      // The heuristic picks its own swept axis; the others are inert.
      if (h == Heuristic::Dp) {
        if (spec.thresholds.empty()) {
          throw std::invalid_argument("sweep spec: dp axis needs thresholds");
        }
        for (double threshold : spec.thresholds) {
          for (int paths : spec.paths_per_pair) {
            for (std::uint64_t seed : spec.seeds) {
              push(topo, h, threshold, 0, 0, paths, seed);
            }
          }
        }
      } else if (h == Heuristic::Pop) {
        if (spec.partitions.empty()) {
          throw std::invalid_argument("sweep spec: pop axis needs partitions");
        }
        for (int parts : spec.partitions) {
          if (parts <= 0) {
            throw std::invalid_argument("sweep spec: partitions must be > 0");
          }
          for (int paths : spec.paths_per_pair) {
            for (std::uint64_t seed : spec.seeds) {
              push(topo, h, 0.0, parts, 0, paths, seed);
            }
          }
        }
      } else {
        // Bin packing has no topology or path set; emit its items x seed
        // jobs once (on the first topology pass), tagged with the first
        // topology/paths values so ids stay stable across reruns.
        if (topo != spec.topologies.front()) continue;
        if (spec.items.empty()) {
          throw std::invalid_argument("sweep spec: ffd/ff axis needs items");
        }
        for (int items : spec.items) {
          if (items <= 0) {
            throw std::invalid_argument("sweep spec: items must be > 0");
          }
          for (std::uint64_t seed : spec.seeds) {
            push(topo, h, 0.0, 0, items, spec.paths_per_pair.front(), seed);
          }
        }
      }
    }
  }
  return jobs;
}

namespace {

// "2.5,5,10" -> {2.5, 5, 10}; throws on empty/garbage cells.
std::vector<double> parse_double_list(const std::string& key,
                                      const std::string& value) {
  std::vector<double> out;
  for (const std::string& cell : util::split(value, ',')) {
    const std::optional<double> v = util::parse_double(cell);
    if (!v) {
      throw std::invalid_argument("sweep spec: bad number '" + cell +
                                  "' for key '" + key + "'");
    }
    out.push_back(*v);
  }
  return out;
}

double parse_scalar(const std::string& key, const std::string& value) {
  const std::vector<double> list = parse_double_list(key, value);
  if (list.size() != 1) {
    throw std::invalid_argument("sweep spec: key '" + key +
                                "' takes a single value");
  }
  return list.front();
}

// A non-negative decimal integer (counts and seeds), at most `max`.
// Full-precision 64-bit parse: going through double would silently round
// seeds above 2^53 and break reproducibility-from-spec.
std::uint64_t parse_uint(const std::string& key, const std::string& value,
                         std::uint64_t max) {
  const std::optional<std::uint64_t> v = util::parse_uint(value);
  if (!v || *v > max) {
    throw std::invalid_argument("sweep spec: bad integer '" + value +
                                "' for key '" + key +
                                "' (want a non-negative integer)");
  }
  return *v;
}

int parse_count(const std::string& key, const std::string& value) {
  return static_cast<int>(
      parse_uint(key, value, std::numeric_limits<int>::max()));
}

// "1,2,4" and "1..8" (inclusive) -> non-negative integer list.
std::vector<std::uint64_t> parse_uint_list(const std::string& key,
                                           const std::string& value,
                                           std::uint64_t max) {
  std::vector<std::uint64_t> out;
  for (const std::string& cell : util::split(value, ',')) {
    const std::size_t dots = cell.find("..");
    if (dots == std::string::npos) {
      out.push_back(parse_uint(key, cell, max));
      continue;
    }
    const std::uint64_t lo = parse_uint(key, cell.substr(0, dots), max);
    const std::uint64_t hi = parse_uint(key, cell.substr(dots + 2), max);
    if (hi < lo || hi - lo > 1000000) {
      throw std::invalid_argument("sweep spec: bad range '" + cell +
                                  "' for key '" + key + "'");
    }
    // Count up from lo: `v <= hi` would never fail at hi = 2^64 - 1.
    for (std::uint64_t k = 0; k <= hi - lo; ++k) out.push_back(lo + k);
  }
  return out;
}

std::vector<int> parse_count_list(const std::string& key,
                                  const std::string& value) {
  std::vector<int> out;
  for (const std::uint64_t v :
       parse_uint_list(key, value, std::numeric_limits<int>::max())) {
    out.push_back(static_cast<int>(v));
  }
  return out;
}

}  // namespace

SweepSpec parse_sweep_spec(const std::vector<std::string>& tokens) {
  SweepSpec spec;
  for (const std::string& token : tokens) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("sweep spec: expected key=value, got '" +
                                  token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "topology" || key == "topologies") {
      spec.topologies = util::split(value, ',');
      if (spec.topologies.empty() || value.empty()) {
        throw std::invalid_argument("sweep spec: empty topology list");
      }
    } else if (key == "heuristic" || key == "heuristics") {
      spec.heuristics.clear();
      for (const std::string& cell : util::split(value, ',')) {
        spec.heuristics.push_back(heuristic_from_string(cell));
      }
    } else if (key == "threshold" || key == "thresholds") {
      spec.thresholds = parse_double_list(key, value);
    } else if (key == "partitions") {
      spec.partitions = parse_count_list(key, value);
    } else if (key == "items") {
      spec.items = parse_count_list(key, value);
    } else if (key == "dims") {
      spec.dims = parse_count(key, value);
    } else if (key == "bins") {
      spec.bins = parse_count(key, value);
    } else if (key == "paths") {
      spec.paths_per_pair = parse_count_list(key, value);
    } else if (key == "seed" || key == "seeds") {
      spec.seeds = parse_uint_list(key, value,
                                   std::numeric_limits<std::uint64_t>::max());
    } else if (key == "instances") {
      spec.pop_instances = parse_count(key, value);
    } else if (key == "pairs") {
      spec.pairs = parse_count(key, value);
    } else if (key == "budget") {
      spec.budget_seconds = parse_scalar(key, value);
    } else if (key == "demand-ub") {
      spec.demand_ub = parse_scalar(key, value);
    } else if (key == "base-seed") {
      spec.base_seed =
          parse_uint(key, value, std::numeric_limits<std::uint64_t>::max());
    } else if (key == "seed-fraction") {
      spec.seed_search_fraction = parse_scalar(key, value);
    } else if (key == "deterministic") {
      spec.deterministic = parse_scalar(key, value) != 0.0;
    } else if (key == "certify") {
      spec.certify = parse_scalar(key, value) != 0.0;
    } else if (key == "mip-threads") {
      spec.mip_threads = parse_count(key, value);
    } else if (key == "max-jobs") {
      spec.max_jobs = parse_count(key, value);
    } else {
      throw std::invalid_argument("sweep spec: unknown key '" + key + "'");
    }
  }
  return spec;
}

}  // namespace metaopt::runner
