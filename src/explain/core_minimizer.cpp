#include "explain/core_minimizer.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/rng.h"

namespace metaopt::explain {

namespace {

const obs::Gauge g_core_size = obs::gauge("explain.core_size");
const obs::Histogram h_minimize_ns = obs::histogram("explain.minimize_ns");

std::vector<int> without(const std::vector<int>& keep, int element) {
  std::vector<int> out;
  out.reserve(keep.size() - 1);
  for (const int e : keep) {
    if (e != element) out.push_back(e);
  }
  return out;
}

}  // namespace

CoreResult minimize_core(ProbeContext& ctx, const MinimizeOptions& options) {
  MO_SPAN_HIST("explain.minimize", h_minimize_ns);
  const long probes_before = ctx.probes();

  CoreResult result;
  std::vector<int>& keep = result.core;
  keep = ctx.support();
  result.gap = ctx.probe(keep).gap;
  // A witness that misses the threshold is not minimized: the support
  // is echoed so callers can report what was asked of it.
  result.minimal = result.gap >= options.min_gap;

  // Deletion passes in a per-pass shuffled order: the order decides
  // which of several equally valid minimal cores we land on, so it is
  // drawn from a derive_seed stream — same seed, same core, bytewise.
  // A one-element core still gets its empty-set probe, so the last pass
  // always covers every single deletion.
  bool deleted = result.minimal;
  for (std::uint64_t pass = 0; deleted; ++pass) {
    deleted = false;
    std::vector<int> order = keep;
    util::Rng rng(util::derive_seed(options.seed, pass));
    rng.shuffle(order);
    for (const int e : order) {
      // `order` is a snapshot; skip elements a prior deletion removed.
      if (!std::binary_search(keep.begin(), keep.end(), e)) continue;
      std::vector<int> trial = without(keep, e);
      const double gap = ctx.probe(trial).gap;
      if (gap >= options.min_gap) {
        keep = std::move(trial);
        result.gap = gap;
        deleted = true;
      }
    }
  }

  result.certified = ctx.all_certified();
  result.probes = ctx.probes() - probes_before;
  if (result.minimal) g_core_size.set(static_cast<double>(keep.size()));
  return result;
}

}  // namespace metaopt::explain
