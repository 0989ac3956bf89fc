// The builtin heuristic families. heur::make_instance (declared in
// heur/instance.h) is defined in domains.cpp, the one layer that links
// both the TE and the bin-packing domains.
#pragma once

namespace metaopt::domains {

/// Does nothing: the families are a closed list (heur::Heuristic), so
/// there is nothing to register. Kept only because the benchmark driver
/// (perfbench/driver.cpp) still calls it.
void register_builtin();

}  // namespace metaopt::domains
