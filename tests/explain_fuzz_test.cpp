// Randomized 1-minimality invariant corpus for the core minimizer.
//
// For seeded random instances of DP, POP and FFD, every core the
// minimizer returns must satisfy the explain contract checked *from
// scratch* (a fresh ProbeContext, so the check cannot inherit minimizer
// state). The minimizer's own last deletion pass is its proof of
// 1-minimality; this is the independent check of that proof:
//   * gap(core) >= threshold, and
//   * for every element e in the core, gap(core \ {e}) < threshold —
//     the 1-minimality invariant.
//
// Every probe is an exact heuristic-vs-OPT re-solve, so the corpus size
// defaults small; METAOPT_EXPLAIN_FUZZ_COUNT dials it (sanitizer CI
// down, a nightly soak up). The root seed rotates via
// METAOPT_FUZZ_SEED like the other fuzz suites.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "domains/te_instances.h"
#include "explain/core_minimizer.h"
#include "explain/probe.h"
#include "heur/instance.h"
#include "util/rng.h"

namespace metaopt {
namespace {

int corpus_count(int fallback) {
  if (const char* env = std::getenv("METAOPT_EXPLAIN_FUZZ_COUNT")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::uint64_t root_seed() {
  if (const char* env = std::getenv("METAOPT_FUZZ_SEED")) {
    const std::uint64_t v = std::strtoull(env, nullptr, 10);
    if (v != 0) return v;
  }
  return 1;
}

/// Checks the explain contract on a fresh context; `label` names the
/// instance in failure messages.
void check_one_minimal(const heur::HeuristicInstance& instance,
                       const std::vector<double>& witness,
                       const std::vector<int>& core, double threshold,
                       const std::string& label) {
  explain::ProbeContext fresh(instance, witness);
  EXPECT_GE(fresh.probe(core).gap, threshold) << label;
  for (const int e : core) {
    std::vector<int> without;
    for (const int k : core) {
      if (k != e) without.push_back(k);
    }
    EXPECT_LT(fresh.probe(without).gap, threshold)
        << label << ": core is not 1-minimal, element " << e
        << " is removable";
  }
  EXPECT_TRUE(fresh.all_certified()) << label;
}

/// `support` restricts the random draws to the leader variables it
/// marks (empty = all of them); the rest stay zero.
void run_corpus(const heur::InstanceConfig& base_config,
                const std::string& family, int count,
                const std::vector<double>& levels,
                const std::vector<double>& crafted,
                const std::vector<bool>& support = {}) {
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(base_config);
  const int n = instance->num_leader_vars();

  int explained = 0;
  for (int i = 0; i < count; ++i) {
    // Instance 0 is a known adversarial witness, so the invariant is
    // always exercised at least once regardless of random luck; the
    // rest of the corpus draws from the quantization levels gaps
    // concentrate on (§5), with a deliberate bias toward the
    // gap-inducing values.
    std::vector<double> witness;
    if (i == 0) {
      witness = crafted;
    } else {
      util::Rng rng(
          util::derive_seed(root_seed(), static_cast<std::uint64_t>(i)));
      witness.assign(static_cast<std::size_t>(n), 0.0);
      for (std::size_t k = 0; k < witness.size(); ++k) {
        if (!support.empty() && !support[k]) continue;
        witness[k] = levels[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(levels.size()) - 1))];
      }
    }

    explain::ProbeContext probe_once(*instance, witness);
    const double witness_gap = probe_once.probe(probe_once.support()).gap;
    if (witness_gap <= 0.0) continue;  // no gap: nothing to minimize
    ++explained;
    const double threshold = 0.95 * witness_gap;

    explain::ProbeContext ctx(*instance, witness);
    explain::MinimizeOptions options;
    options.min_gap = threshold;
    options.seed = util::derive_seed(root_seed(), 1000 + i);
    const explain::CoreResult core = explain::minimize_core(ctx, options);
    const std::string label = family + " seed " + std::to_string(i);
    ASSERT_TRUE(core.minimal) << label;
    EXPECT_LE(core.core.size(), ctx.support().size()) << label;
    check_one_minimal(*instance, witness, core.core, threshold, label);
  }
  // The corpus must actually exercise the minimizer, not skip through.
  EXPECT_GT(explained, 0) << family;
}

TEST(ExplainFuzz, BinpackCoresAreOneMinimal) {
  heur::InstanceConfig config;
  config.heuristic = "ffd";
  config.items = 6;
  config.dims = 1;
  config.bins = 4;
  // Sizes from the classic counterexample values (doubled-up so the
  // trouble pattern has a fighting chance in few draws), plus the
  // counterexample itself as the crafted instance.
  run_corpus(config, "ffd", corpus_count(8), {0.0, 0.26, 0.26, 0.45, 0.45},
             {0.45, 0.45, 0.26, 0.26, 0.26, 0.26});
}

TEST(ExplainFuzz, TeDpCoresAreOneMinimal) {
  heur::InstanceConfig config;
  config.heuristic = "dp";
  config.topology = "fig1";
  config.threshold = 50.0;
  // Levels 0, T (twice: pinnable demands drive the gap), capacities;
  // the crafted instance is the Fig. 1 witness with pathless padding.
  run_corpus(config, "dp", corpus_count(8), {0.0, 50.0, 50.0, 100.0, 110.0},
             {100.0, 50.0, 5.0, 110.0, 0.0, 0.0});
}

TEST(ExplainFuzz, TePopCoresAreOneMinimal) {
  heur::InstanceConfig config;
  config.heuristic = "pop";
  config.topology = "b4";
  config.support = 12;
  config.partitions = 2;
  config.stream_seed = 7;
  // Random draws stay on the 12-pair support the finds search, at levels
  // 0, half and full link capacity (full twice: saturating demands drive
  // POP's gap); the crafted instance is the gap-floor corpus's POP
  // witness found at this stream seed.
  const int pairs = heur::make_instance(config)->num_leader_vars();
  std::vector<double> crafted(static_cast<std::size_t>(pairs), 0.0);
  for (const std::size_t k : {0u, 11u, 22u, 88u}) crafted[k] = 1000.0;
  run_corpus(config, "pop", corpus_count(8), {0.0, 500.0, 1000.0, 1000.0},
             crafted, domains::make_support_mask(pairs, config.support));
}

}  // namespace
}  // namespace metaopt
