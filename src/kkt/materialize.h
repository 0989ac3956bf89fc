// Materializing an InnerProblem's constraints into a Model.
//
// The TE formulations are written once as InnerProblems. The white-box
// path feeds them through emit_kkt; a few callers instead want the
// inner feasible region as plain rows of an ordinary model — the
// encoding builders composing several inner problems under one
// objective, and the tests that solve an encoding as ground truth.
// (Direct TE solves do not come through here: they re-solve one
// te::MaxFlowLp by bound changes.)
#pragma once

#include "kkt/inner_problem.h"
#include "lp/model.h"

namespace metaopt::kkt {

/// Adds the inner problem's constraints to `model` (the inner problem
/// must have been built over `model`'s variables). The objective is left
/// to the caller, so several inner problems can be composed into one
/// model with a custom objective.
void materialize_constraints(lp::Model& model, const InnerProblem& inner);

}  // namespace metaopt::kkt
