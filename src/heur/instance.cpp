#include "heur/instance.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace metaopt::heur {

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, InstanceFactory> factories;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

}  // namespace

GapBoundResult HeuristicInstance::bound_gap(const FindOptions& options) const {
  (void)options;
  throw std::invalid_argument("'" + name() +
                              "' has no primal-dual gap bound; bound "
                              "supports the TE heuristics dp and pop");
}

void register_heuristic(const std::string& name, InstanceFactory factory) {
  if (name.empty() || !factory) {
    throw std::invalid_argument("register_heuristic: empty name or factory");
  }
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.factories[name] = std::move(factory);
}

std::vector<std::string> registered_heuristics() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::unique_ptr<HeuristicInstance> make_instance(const InstanceConfig& config) {
  InstanceFactory factory;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.factories.find(config.heuristic);
    if (it != r.factories.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& name : registered_heuristics()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw std::invalid_argument(
        "unknown heuristic '" + config.heuristic + "'" +
        (known.empty() ? " (no domains registered; call "
                         "domains::register_builtin() first)"
                       : " (registered: " + known + ")"));
  }
  return factory(config);
}

}  // namespace metaopt::heur
