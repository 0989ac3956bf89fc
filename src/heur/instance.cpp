#include "heur/instance.h"

#include <stdexcept>

#include "util/string_util.h"

namespace metaopt::heur {

const char* to_string(Heuristic h) {
  switch (h) {
    case Heuristic::Dp: return "dp";
    case Heuristic::Pop: return "pop";
    case Heuristic::Ffd: return "ffd";
    case Heuristic::Ff: return "ff";
  }
  return "?";
}

Heuristic heuristic_from_string(const std::string& name) {
  const std::string lower = util::to_lower(name);
  for (const Heuristic h : kHeuristics) {
    if (lower == to_string(h)) return h;
  }
  throw std::invalid_argument("unknown heuristic '" + name + "' (known: " +
                              known_heuristics() + ")");
}

std::string known_heuristics() {
  std::string out;
  for (const Heuristic h : kHeuristics) {
    if (!out.empty()) out += ", ";
    out += to_string(h);
  }
  return out;
}

GapBoundResult HeuristicInstance::bound_gap(const FindOptions& options) const {
  (void)options;
  throw std::invalid_argument("'" + name() +
                              "' has no primal-dual gap bound; bound "
                              "supports the TE heuristics dp and pop");
}

}  // namespace metaopt::heur
