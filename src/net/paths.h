// Shortest-path machinery: Dijkstra and Yen's k-shortest loopless paths.
//
// Every demand in the TE formulations is restricted to a pre-chosen path
// set (Eq. 2); the paper defaults to 2 paths per node pair and sweeps
// 1/2/4 in Fig. 5b. Demand Pinning additionally needs *the* shortest
// path per pair, which is always entry 0 of the Yen list.
#pragma once

#include <optional>
#include <vector>

#include "net/topology.h"

namespace metaopt::net {

/// A loop-free directed path represented by its edge ids.
struct Path {
  std::vector<EdgeId> edges;

  [[nodiscard]] bool empty() const { return edges.empty(); }
  [[nodiscard]] int hops() const { return static_cast<int>(edges.size()); }
  [[nodiscard]] double weight(const Topology& topo) const;
  [[nodiscard]] std::vector<NodeId> nodes(const Topology& topo) const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.edges == b.edges;
  }
};

/// Dijkstra by edge weight. Ties are broken deterministically by edge id.
/// `banned_edges` / `banned_nodes` (optional, may be null) support Yen's
/// spur computation. Returns nullopt if t is unreachable.
std::optional<Path> shortest_path(const Topology& topo, NodeId s, NodeId t,
                                  const std::vector<bool>* banned_edges = nullptr,
                                  const std::vector<bool>* banned_nodes = nullptr);

/// Yen's algorithm: up to k shortest loopless paths, ascending weight.
/// Entry 0 (when present) is the shortest path.
std::vector<Path> k_shortest_paths(const Topology& topo, NodeId s, NodeId t,
                                   int k);

/// Mean shortest-path weight over all ordered connected node pairs
/// (Fig. 4b's x-axis; with unit weights this is the mean hop count).
double average_shortest_path_length(const Topology& topo);

}  // namespace metaopt::net
