// The metaopt model of a find_te operation, for tests that need the
// real single-shot model shapes (the root LP pins in lp_test, the
// presolve replay's equivalence test).
#pragma once

#include "domains/te_instances.h"
#include "lp/model.h"

namespace metaopt::testmodels {

/// Built the way core::AdversarialGapFinder builds it: the demand
/// leader, OPT's KKT follower, then Demand Pinning's (threshold 50) or
/// the KKT followers of POP's two partitions in each of its
/// instantiations, and the objective OPT minus the heuristic (POP: the
/// mean over instantiations).
lp::Model find_te_model(const domains::TeInstanceBase& te);

}  // namespace metaopt::testmodels
