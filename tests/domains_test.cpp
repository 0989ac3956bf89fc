// Tests for the builtin domains behind heur::make_instance: the closed
// family list, topology specs, and the primal-dual bound as an instance
// operation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "domains/te_instances.h"
#include "heur/instance.h"
#include "net/topologies.h"
#include "runner/sweep_spec.h"

namespace metaopt::domains {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(LoadTopology, CirculantSpecMatchesGenerator) {
  const net::Topology loaded = load_topology("circulant:6:1");
  const net::Topology built = net::topologies::circulant(6, 1);
  ASSERT_EQ(loaded.num_nodes(), built.num_nodes());
  ASSERT_EQ(loaded.num_edges(), built.num_edges());
  for (int e = 0; e < built.num_edges(); ++e) {
    EXPECT_EQ(loaded.edge(e).src, built.edge(e).src) << "edge " << e;
    EXPECT_EQ(loaded.edge(e).dst, built.edge(e).dst) << "edge " << e;
    EXPECT_EQ(bits(loaded.edge(e).capacity), bits(built.edge(e).capacity))
        << "edge " << e;
  }
}

TEST(LoadTopology, MalformedOrOutOfRangeCirculantThrows) {
  // A missing or non-integer field, n < 3, and k > (n - 1) / 2.
  for (const std::string spec :
       {"circulant:6", "circulant:6:x", "circulant:2:1", "circulant:6:3"}) {
    EXPECT_THROW((void)load_topology(spec), std::invalid_argument) << spec;
  }
}

/// The bound of `config` through its instance, at a budget no build
/// type reaches before proving it.
heur::GapBoundResult bound(const heur::InstanceConfig& config) {
  heur::FindOptions options;
  options.budget_seconds = 600.0;
  return heur::make_instance(config)->bound_gap(options);
}

// The bound did not move when it became an instance operation: these
// values were measured on the standalone bounder it replaced.
TEST(RegistryBound, Fig1DpBoundIsPinned) {
  heur::InstanceConfig config;
  config.heuristic = "dp";
  config.topology = "fig1";
  config.leader_ub = 200.0;
  const heur::GapBoundResult r = bound(config);
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(bits(r.upper_bound), bits(250.0));
  EXPECT_EQ(r.stats.num_vars, 51);
  EXPECT_EQ(r.stats.num_constraints, 92);
  EXPECT_EQ(r.stats.num_complementarities, 0);
  EXPECT_EQ(r.stats.num_binaries, 3);
}

TEST(RegistryBound, B4PopBoundIsPinned) {
  heur::InstanceConfig config;
  config.heuristic = "pop";
  config.topology = "b4";
  config.support = 12;
  config.pop_seeds = {1, 2, 3};
  const heur::GapBoundResult r = bound(config);
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(bits(r.upper_bound), bits(2023.8095238095232));
  EXPECT_EQ(r.stats.num_vars, 2344);
  EXPECT_EQ(r.stats.num_constraints, 2483);
  EXPECT_EQ(r.stats.num_complementarities, 0);
  EXPECT_EQ(r.stats.num_binaries, 0);
}

TEST(RegistryBound, BinPackingHasNoBound) {
  heur::InstanceConfig config;
  config.heuristic = "ffd";
  try {
    (void)bound(config);
    FAIL() << "ffd returned a bound";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'ffd'"), std::string::npos)
        << e.what();
  }
}

// The families are a closed list: make_instance builds every one of them
// with no registration step, under any spelling of its name, and names
// all four when it rejects one.
TEST(Families, BuildWithoutRegistration) {
  heur::InstanceConfig config;
  config.topology = "fig1";
  for (const runner::Heuristic h :
       {runner::Heuristic::Dp, runner::Heuristic::Pop, runner::Heuristic::Ffd,
        runner::Heuristic::Ff}) {
    config.heuristic = runner::to_string(h);
    EXPECT_EQ(heur::make_instance(config)->name(), runner::to_string(h));
  }
  config.heuristic = "DP";
  EXPECT_EQ(heur::make_instance(config)->name(), "dp");
  config.heuristic = "bogus";
  try {
    (void)heur::make_instance(config);
    FAIL() << "'bogus' built an instance";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'bogus' (known: dp, pop, ffd, ff)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace metaopt::domains
