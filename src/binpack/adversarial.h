// White-box adversarial search for first-fit(-decreasing) bin packing.
//
// The same Eq. 1 driver as core/adversarial.h (core/single_shot.h), with
// a bin-packing family: the leader picks item sizes, the unrolled FF/FFD
// procedure (binpack/encoding.h) plays the heuristic, and the volume LP
// is the one KKT follower, an embedded OPT bound. The family's hooks
// snap candidates to the sorted canonical form, complete the FF trace,
// seed with the 0.45C/0.26C worst-case family, and re-score every
// candidate exactly against the simulated heuristic and the assignment
// MIP — so the reported gap is the *true* bins-wasted count even though
// the embedded objective only upper-bounds it.
#pragma once

#include <vector>

#include "binpack/binpack.h"
#include "heur/instance.h"

namespace metaopt::binpack {

/// Worst-case FF/FFD-vs-OPT gap (in bins) over the leader box. The
/// returned gap/opt_value/heur_value come from exact direct re-solves at
/// the incumbent; `bound` is the branch-and-bound bound on the embedded
/// surrogate (a valid upper bound on the true gap); `certified` means
/// the incumbent's OPT re-solve passed independent certification.
heur::GapFindResult find_ffd_gap(const BinPackConfig& config,
                                 const heur::FindOptions& options);

/// Size levels where adversarial instances concentrate: just above the
/// C/2, C/3, C/4 packing breakpoints, plus the classic worst-case-family
/// values (0.45C / 0.26C) and the box corners.
std::vector<double> quantize_levels(const BinPackConfig& config);

/// The deterministic seed instance: per 3 items, one 0.45C item and two
/// 0.26C items (item-major, sorted by decreasing key; zero-padded).
/// OPT packs each (a,b,b) triple in one bin at 0.97C; FFD pairs the a's
/// first and strands trailing b's, wasting a bin for every 6 items.
std::vector<double> worst_case_family(const BinPackConfig& config);

}  // namespace metaopt::binpack
