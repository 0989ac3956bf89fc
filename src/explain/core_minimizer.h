// Minimal adversarial cores: shrink a gap witness to the smallest
// element subset whose sub-instance still exhibits the gap.
//
// One algorithm, greedy single deletion: passes over the current core
// in a shuffled order, each element dropped when the sub-instance
// without it still retains the threshold. The shuffle order comes off
// a derive_seed stream, so runs are byte-reproducible per seed. The
// loop stops at the first full pass that deletes nothing, and that pass
// is the 1-minimality proof: it probed every single-element deletion of
// the final core and each one dropped the gap below the threshold.
//
// Delta debugging (ddmin) was measured against it and never needed
// fewer probes (DESIGN.md, "Gap explanation").
#pragma once

#include <cstdint>
#include <vector>

#include "explain/probe.h"

namespace metaopt::explain {

struct MinimizeOptions {
  /// Absolute gap the core's sub-instance must retain (>= compares).
  double min_gap = 0.0;
  /// Seed of the shuffle streams (util::derive_seed(seed, pass)); the
  /// same seed reproduces the same core byte-for-byte.
  std::uint64_t seed = 1;
};

struct CoreResult {
  /// The minimal adversarial core, ascending element indices.
  std::vector<int> core;
  /// Gap of the core's sub-instance (>= MinimizeOptions::min_gap).
  double gap = 0.0;
  /// Every probe this minimization performed was certified.
  bool certified = false;
  /// Oracle evaluations spent (cache hits excluded).
  long probes = 0;
  /// Verified 1-minimal: removing any single element drops the gap
  /// below min_gap. False only when the starting witness itself missed
  /// the threshold (then `core` echoes the full support).
  bool minimal = false;
};

/// Shrinks ctx.support() to a verified 1-minimal core.
[[nodiscard]] CoreResult minimize_core(ProbeContext& ctx,
                                       const MinimizeOptions& options);

}  // namespace metaopt::explain
