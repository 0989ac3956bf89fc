#include "kkt/materialize.h"

namespace metaopt::kkt {

void materialize_constraints(lp::Model& model, const InnerProblem& inner) {
  for (const InnerConstraint& c : inner.constraints()) {
    model.add_constraint(c.spec, c.name);
  }
}

}  // namespace metaopt::kkt
