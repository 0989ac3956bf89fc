#include "te/demand.h"

#include <algorithm>
#include <stdexcept>

namespace metaopt::te {

std::vector<std::pair<net::NodeId, net::NodeId>> all_pairs(
    const net::Topology& topo) {
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(topo.num_nodes()) *
                (topo.num_nodes() - 1));
  for (net::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (net::NodeId t = 0; t < topo.num_nodes(); ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

std::vector<double> volumes_of(const std::vector<Demand>& demands) {
  std::vector<double> out(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) out[i] = demands[i].volume;
  return out;
}

std::vector<Demand> DemandGenerator::uniform(double lo, double hi) {
  std::vector<Demand> out;
  for (const auto& [s, t] : all_pairs(topo_)) {
    out.push_back(Demand{s, t, rng_.uniform(lo, hi)});
  }
  return out;
}

std::vector<Demand> DemandGenerator::gravity(double mean_volume) {
  const int n = topo_.num_nodes();
  std::vector<double> mass(n);
  for (int i = 0; i < n; ++i) mass[i] = rng_.uniform(0.5, 1.5);
  std::vector<Demand> out;
  double sum = 0.0;
  for (const auto& [s, t] : all_pairs(topo_)) {
    const double v = mass[s] * mass[t];
    out.push_back(Demand{s, t, v});
    sum += v;
  }
  if (sum > 0.0) {
    const double scale =
        mean_volume * static_cast<double>(out.size()) / sum;
    for (Demand& d : out) d.volume *= scale;
  }
  return out;
}

std::vector<Demand> DemandGenerator::hose(double lo, double hi,
                                          double hose_cap) {
  std::vector<Demand> out = uniform(lo, hi);
  const int n = topo_.num_nodes();
  std::vector<double> egress(n, 0.0), ingress(n, 0.0);
  for (const Demand& d : out) {
    egress[d.src] += d.volume;
    ingress[d.dst] += d.volume;
  }
  for (Demand& d : out) {
    double scale = 1.0;
    if (egress[d.src] > hose_cap) scale = std::min(scale, hose_cap / egress[d.src]);
    if (ingress[d.dst] > hose_cap) scale = std::min(scale, hose_cap / ingress[d.dst]);
    d.volume *= scale;
  }
  return out;
}

}  // namespace metaopt::te
