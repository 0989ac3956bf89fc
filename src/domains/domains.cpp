#include "domains/domains.h"

#include <memory>
#include <stdexcept>

#include "binpack/instance.h"
#include "domains/te_instances.h"
#include "heur/instance.h"

namespace metaopt::domains {

void register_builtin() {}

}  // namespace metaopt::domains

namespace metaopt::heur {

std::unique_ptr<HeuristicInstance> make_instance(const InstanceConfig& config) {
  const Heuristic h = heuristic_from_string(config.heuristic);
  switch (h) {
    case Heuristic::Dp:
      return std::make_unique<domains::TeDpInstance>(config);
    case Heuristic::Pop:
      return std::make_unique<domains::TePopInstance>(config);
    case Heuristic::Ffd:
    case Heuristic::Ff:
      return binpack::make_binpack_instance(config, h == Heuristic::Ffd);
  }
  throw std::logic_error("make_instance: unhandled heuristic");
}

}  // namespace metaopt::heur
