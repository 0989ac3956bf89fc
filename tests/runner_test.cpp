// Tests for the scenario-sweep engine: spec expansion and parsing,
// determinism across thread counts, the in-flight bound of the job
// lanes, per-job fault isolation, and campaign-stopping bookkeeping
// failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "domains/domains.h"
#include "runner/jsonl_io.h"
#include "runner/scheduler.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "util/rng.h"

namespace metaopt::runner {
namespace {

// ---------------------------------------------------------------- spec

TEST(SweepSpecTest, ExpandsCartesianGridWithStableIds) {
  SweepSpec spec;
  spec.topologies = {"b4", "abilene"};
  spec.thresholds = {25.0, 50.0, 100.0};
  spec.paths_per_pair = {1, 2};
  spec.seeds = {1, 2};
  const std::vector<JobSpec> jobs = expand_spec(spec);
  ASSERT_EQ(jobs.size(), 2u * 3u * 2u * 2u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<int>(i));
  }
  // Innermost axis is the seed, outermost the topology.
  EXPECT_EQ(jobs[0].topology, "b4");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[1].seed, 2u);
  EXPECT_EQ(jobs.back().topology, "abilene");
  EXPECT_EQ(jobs.back().threshold, 100.0);
}

TEST(SweepSpecTest, PopAxisUsesPartitions) {
  SweepSpec spec;
  spec.heuristics = {Heuristic::Pop};
  spec.partitions = {2, 4, 8};
  const std::vector<JobSpec> jobs = expand_spec(spec);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].num_partitions, 2);
  EXPECT_EQ(jobs[2].num_partitions, 8);
  EXPECT_EQ(jobs[0].axis_value(), 2.0);
}

TEST(SweepSpecTest, FfdAxisUsesItemsAndIgnoresTopologyGrid) {
  // Bin packing has no topology or path set: the items x seed jobs are
  // emitted exactly once even when the spec sweeps several topologies
  // and path counts, and dims/bins ride along as scalars.
  SweepSpec spec;
  spec.topologies = {"b4", "swan", "abilene"};
  spec.heuristics = {Heuristic::Ffd};
  spec.items = {4, 8};
  spec.paths_per_pair = {1, 2};
  spec.seeds = {1, 2};
  spec.dims = 2;
  spec.bins = 3;
  const std::vector<JobSpec> jobs = expand_spec(spec);
  ASSERT_EQ(jobs.size(), 2u * 2u);  // items x seeds, NOT x topologies/paths
  EXPECT_EQ(jobs[0].items, 4);
  EXPECT_EQ(jobs[0].dims, 2);
  EXPECT_EQ(jobs[0].bins, 3);
  EXPECT_EQ(jobs[0].axis_value(), 4.0);
  EXPECT_EQ(jobs.back().items, 8);
  EXPECT_EQ(jobs.back().seed, 2u);
}

TEST(SweepSpecTest, MixedHeuristicGridKeepsPerFamilyAxes) {
  SweepSpec spec;
  spec.heuristics = {Heuristic::Dp, Heuristic::Ffd};
  spec.thresholds = {25.0, 50.0};
  spec.items = {6};
  const std::vector<JobSpec> jobs = expand_spec(spec);
  ASSERT_EQ(jobs.size(), 3u);  // 2 dp thresholds + 1 ffd items cell
  EXPECT_EQ(jobs[0].heuristic, Heuristic::Dp);
  EXPECT_EQ(jobs[2].heuristic, Heuristic::Ffd);
  EXPECT_EQ(jobs[2].items, 6);
}

TEST(SweepSpecTest, MaxJobsCapsExpansion) {
  SweepSpec spec;
  spec.thresholds = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.max_jobs = 3;
  EXPECT_EQ(expand_spec(spec).size(), 3u);
}

TEST(SweepSpecTest, StreamSeedsAreStableAndDistinct) {
  SweepSpec spec;
  spec.thresholds = {25.0, 50.0};
  spec.seeds = {1, 2, 3};
  const std::vector<JobSpec> a = expand_spec(spec);
  const std::vector<JobSpec> b = expand_spec(spec);
  std::set<std::uint64_t> streams;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream_seed, b[i].stream_seed) << "expansion not stable";
    streams.insert(a[i].stream_seed);
  }
  EXPECT_EQ(streams.size(), a.size()) << "stream seeds collide";
}

TEST(SweepSpecTest, SplitmixDerivationIsOrderFree) {
  // derive_seed depends only on (base, stream), never on call order.
  const std::uint64_t forward = util::derive_seed(42, 7);
  (void)util::derive_seed(42, 3);
  EXPECT_EQ(util::derive_seed(42, 7), forward);
  EXPECT_NE(util::derive_seed(42, 7), util::derive_seed(42, 8));
  EXPECT_NE(util::derive_seed(42, 7), util::derive_seed(43, 7));
}

TEST(SweepSpecTest, ParserHandlesListsRangesAndScalars) {
  const SweepSpec spec = parse_sweep_spec(
      {"topology=b4,swan", "heuristic=dp,pop", "threshold=2.5,50",
       "partitions=2..4", "paths=1,2", "seed=1..3", "instances=4", "pairs=12",
       "budget=7.5", "deterministic=0", "max-jobs=99", "base-seed=17"});
  EXPECT_EQ(spec.topologies, (std::vector<std::string>{"b4", "swan"}));
  ASSERT_EQ(spec.heuristics.size(), 2u);
  EXPECT_EQ(spec.heuristics[1], Heuristic::Pop);
  EXPECT_EQ(spec.thresholds, (std::vector<double>{2.5, 50.0}));
  EXPECT_EQ(spec.partitions, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.pop_instances, 4);
  EXPECT_EQ(spec.pairs, 12);
  EXPECT_DOUBLE_EQ(spec.budget_seconds, 7.5);
  EXPECT_FALSE(spec.deterministic);
  EXPECT_EQ(spec.max_jobs, 99);
  EXPECT_EQ(spec.base_seed, 17u);

  // Later tokens win, so a budget after a spec file's tokens rescales
  // a whole figure.
  const SweepSpec later = parse_sweep_spec(
      {"budget=20", "heuristic=dp", "budget=0.5", "heuristic=ffd"});
  EXPECT_EQ(later.budget_seconds, 0.5);
  EXPECT_EQ(later.heuristics, (std::vector<Heuristic>{Heuristic::Ffd}));
}

TEST(SweepSpecTest, ParserHandlesBinPackingKeys) {
  const SweepSpec spec = parse_sweep_spec(
      {"heuristic=ffd,ff", "items=4..6,12", "dims=2", "bins=5"});
  ASSERT_EQ(spec.heuristics.size(), 2u);
  EXPECT_EQ(spec.heuristics[0], Heuristic::Ffd);
  EXPECT_EQ(spec.heuristics[1], Heuristic::Ff);
  EXPECT_EQ(spec.items, (std::vector<int>{4, 5, 6, 12}));
  EXPECT_EQ(spec.dims, 2);
  EXPECT_EQ(spec.bins, 5);
}

TEST(SweepSpecTest, UnknownHeuristicNamesTheKnownOnes) {
  // The CLI surfaces this message verbatim; it must identify the bad
  // name and list what is accepted.
  try {
    parse_sweep_spec({"heuristic=bogus"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown heuristic 'bogus'"), std::string::npos);
    EXPECT_NE(what.find("ffd"), std::string::npos);
  }
}

TEST(SweepSpecTest, ParserRejectsGarbage) {
  EXPECT_THROW(parse_sweep_spec({"frobnicate=1"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"threshold"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"threshold=abc"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"seed=5..1"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"heuristic=magic"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"items=0..-1"}), std::invalid_argument);
  // Integer keys take non-negative decimal integers only: no rounding of
  // fractions, no wrap of negative seeds, no trailing garbage.
  for (const char* token :
       {"dims=1.5", "mip-threads=1.9", "seed=-1", "seed=1..-1", "bins=2.5",
        "instances=1.5", "pairs=12.5", "max-jobs=1.5", "items=-4",
        "partitions=2.5", "paths=2x", "dims=1e0", "seed= 1",
        "mip-threads=99999999999"}) {
    EXPECT_THROW(parse_sweep_spec({token}), std::invalid_argument) << token;
  }
  // dims/bins/items validation happens at expansion time.
  EXPECT_THROW(expand_spec(parse_sweep_spec({"heuristic=ffd", "dims=0"})),
               std::invalid_argument);
  EXPECT_THROW(expand_spec(parse_sweep_spec({"heuristic=ffd", "bins=-1"})),
               std::invalid_argument);
  EXPECT_THROW(expand_spec(parse_sweep_spec({"heuristic=ffd", "items=0"})),
               std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"base-seed=-1"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"base-seed=1.5"}), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec({"base-seed=99999999999999999999999"}),
               std::invalid_argument);
}

TEST(SweepSpecTest, ParserRejectsNonFiniteNumbersNamingTheKey) {
  // strtod takes nan, inf and overflows to inf; the spec grammar must
  // refuse all three, and say which key was bad.
  for (const char* token :
       {"budget=nan", "budget=inf", "budget=-inf", "budget=1e999",
        "seed-fraction=nan", "threshold=inf", "threshold=25,nan",
        "demand-ub=NAN", "certify=nan", "deterministic=inf"}) {
    const std::string key = std::string(token).substr(
        0, std::string(token).find('='));
    try {
      parse_sweep_spec({token});
      ADD_FAILURE() << "expected std::invalid_argument for " << token;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // A finite negative budget parses, and expansion refuses it.
  EXPECT_THROW(expand_spec(parse_sweep_spec({"budget=-1"})),
               std::invalid_argument);
}

TEST(SweepSpecTest, BaseSeedKeepsFull64BitPrecision) {
  // Above 2^53 a double round-trip would silently round; the parser must
  // take the integer path so reproducibility-from-spec holds.
  const SweepSpec above = parse_sweep_spec({"base-seed=9007199254740993"});
  EXPECT_EQ(above.base_seed, 9007199254740993u);  // 2^53 + 1
  const SweepSpec max = parse_sweep_spec({"base-seed=18446744073709551615"});
  EXPECT_EQ(max.base_seed, 18446744073709551615u);  // 2^64 - 1
  const SweepSpec top =
      parse_sweep_spec({"seed=18446744073709551614..18446744073709551615"});
  EXPECT_EQ(top.seeds, (std::vector<std::uint64_t>{18446744073709551614u,
                                                   18446744073709551615u}));
}

TEST(SweepSpecTest, SeedFractionParsesAndPropagates) {
  SweepSpec spec = parse_sweep_spec({"seed-fraction=0.5"});
  EXPECT_DOUBLE_EQ(spec.seed_search_fraction, 0.5);
  EXPECT_DOUBLE_EQ(expand_spec(spec)[0].seed_search_fraction, 0.5);
  spec.seed_search_fraction = 1.5;
  EXPECT_THROW(expand_spec(spec), std::invalid_argument);
  spec.seed_search_fraction = -0.1;
  EXPECT_THROW(expand_spec(spec), std::invalid_argument);
}

TEST(SweepSpecTest, ExpandRejectsBadSpecs) {
  SweepSpec spec;
  spec.budget_seconds = 0.0;
  EXPECT_THROW(expand_spec(spec), std::invalid_argument);
  spec = SweepSpec();
  spec.topologies.clear();
  EXPECT_THROW(expand_spec(spec), std::invalid_argument);
}

// --------------------------------------------------------------- runner

// Deterministic fake job body: a cheap stand-in for the solver whose
// result is a pure function of the job spec.
heur::GapFindResult fake_solve(const JobSpec& job) {
  heur::GapFindResult r;
  r.status = lp::SolveStatus::Optimal;
  r.gap = job.threshold + static_cast<double>(job.num_partitions) +
          0.001 * static_cast<double>(job.stream_seed % 1000);
  r.normalized_gap = r.gap / 1000.0;
  r.bound = r.gap;
  r.nodes = job.id;
  r.seconds = 0.0;
  r.volumes = {1.0};
  return r;
}

// Strips the trailing wall-time fields from every JSONL record so runs
// with different thread counts can be compared bytewise.
std::string strip_wall_times(const std::string& jsonl) {
  static const std::regex kWall(",\"solve_seconds\":[^,}]*,\"wall_seconds\":[^,}]*");
  return std::regex_replace(jsonl, kWall, "");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.topologies = {"b4", "swan"};
  spec.thresholds = {25.0, 50.0, 100.0};
  spec.seeds = {1, 2};
  spec.budget_seconds = 1.0;
  return spec;
}

TEST(SweepRunnerTest, IdenticalJsonlAcrossThreadCounts) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  std::vector<std::string> payloads;
  for (int threads : {1, 2, 8}) {
    SweepOptions options;
    options.threads = threads;
    options.log_progress = false;
    const SweepReport report = SweepRunner(options).run_jobs(jobs, fake_solve);
    EXPECT_EQ(report.threads, threads);
    EXPECT_EQ(report.num_ok, static_cast<int>(jobs.size()));
    payloads.push_back(strip_wall_times(report.jsonl()));
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[0], payloads[2]);
}

TEST(SweepRunnerTest, AggregationSortsShuffledJobIds) {
  std::vector<JobSpec> jobs = expand_spec(small_spec());
  std::rotate(jobs.begin(), jobs.begin() + 5, jobs.end());
  SweepOptions options;
  options.threads = 4;
  options.log_progress = false;
  const SweepReport report = SweepRunner(options).run_jobs(jobs, fake_solve);
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].spec.id, static_cast<int>(i));
  }
}

// --threads bounds the jobs in flight even when another component
// (mip-threads) has grown the shared scheduler wider than the sweep.
TEST(SweepRunnerTest, ThreadsBoundJobsInFlightOnAWiderPool) {
  Scheduler::global().ensure_threads(4);
  SweepSpec spec = small_spec();
  spec.max_jobs = 12;
  const std::vector<JobSpec> jobs = expand_spec(spec);
  ASSERT_EQ(jobs.size(), 12u);
  std::atomic<int> in_flight{0};
  std::atomic<int> most{0};
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(jobs, [&](const JobSpec& job) {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        in_flight.fetch_sub(1);
        return fake_solve(job);
      });
  EXPECT_EQ(report.num_ok, 12);
  EXPECT_GE(Scheduler::global().num_threads(), 4);
  EXPECT_GE(most.load(), 1);
  EXPECT_LE(most.load(), 2);
}

// A JSONL append that fails mid-campaign (here: its directory vanished)
// stops the campaign with the write's error instead of terminating the
// process from a scheduler worker.
TEST(SweepRunnerTest, FailedCheckpointWriteIsRethrown) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  const std::string dir = ::testing::TempDir() + "metaopt_ckpt_vanishes";
  const std::string gone = dir + ".gone";
  std::filesystem::remove_all(gone);
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  options.jsonl_path = dir + "/sweep.jsonl";
  std::atomic<int> executed{0};
  EXPECT_THROW(
      (void)SweepRunner(options).run_jobs(
          jobs,
          [&](const JobSpec& job) {
            executed.fetch_add(1);
            // One atomic rename: remove_all could race the other lane's
            // append, which recreates the file and makes the rmdir fail.
            if (job.id == 0) std::filesystem::rename(dir, gone);
            return fake_solve(job);
          }),
      std::runtime_error);
  // The lanes stop taking jobs once the write failed.
  EXPECT_LT(executed.load(), static_cast<int>(jobs.size()));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(gone);
}

// A throwing progress callback stops the campaign the same way.
TEST(SweepRunnerTest, ThrowingProgressCallbackIsRethrown) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  options.on_progress = [](const JobResult&, int done, int) {
    if (done == 3) throw std::runtime_error("progress sink closed");
  };
  try {
    (void)SweepRunner(options).run_jobs(jobs, fake_solve);
    ADD_FAILURE() << "run_jobs returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "progress sink closed");
  }
}

TEST(SweepRunnerTest, ThrowingJobIsIsolatedAsFailed) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  SweepOptions options;
  options.threads = 4;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(jobs, [](const JobSpec& job) {
        if (job.id == 3) throw std::runtime_error("simplex exploded");
        return fake_solve(job);
      });
  ASSERT_EQ(report.jobs.size(), jobs.size());
  EXPECT_EQ(report.num_failed, 1);
  EXPECT_EQ(report.num_ok, static_cast<int>(jobs.size()) - 1);
  for (const JobResult& job : report.jobs) {
    if (job.spec.id == 3) {
      EXPECT_EQ(job.status, JobStatus::Failed);
      EXPECT_EQ(job.error, "simplex exploded");
      EXPECT_NE(to_json(job).find("\"status\":\"failed\""), std::string::npos);
    } else {
      // Sibling results are untouched by the failure.
      EXPECT_EQ(job.status, JobStatus::Ok);
      EXPECT_DOUBLE_EQ(job.result.gap, fake_solve(job.spec).gap);
    }
  }
}

TEST(SweepRunnerTest, TimeLimitStatusMapsToTimeout) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(jobs, [](const JobSpec& job) {
        heur::GapFindResult r = fake_solve(job);
        if (job.id == 0) {
          // Budget exhausted with no incumbent at all -> timeout.
          r.status = lp::SolveStatus::TimeLimit;
          r.volumes.clear();
        }
        if (job.id == 1) {
          // Budget-bounded but carrying a genuine incumbent -> ok.
          r.status = lp::SolveStatus::TimeLimit;
        }
        return r;
      });
  EXPECT_EQ(report.num_timeout, 1);
  EXPECT_EQ(report.jobs[0].status, JobStatus::Timeout);
  EXPECT_EQ(report.jobs[1].status, JobStatus::Ok);
  EXPECT_NE(to_json(report.jobs[0]).find("\"status\":\"timeout\""),
            std::string::npos);
}

TEST(SweepRunnerTest, ProgressCallbackSeesEveryJob) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  SweepOptions options;
  options.threads = 4;
  options.log_progress = false;
  std::set<int> seen;
  int last_done = 0;
  options.on_progress = [&](const JobResult& job, int done, int total) {
    // The runner serializes progress callbacks, so no locking needed.
    seen.insert(job.spec.id);
    EXPECT_EQ(done, last_done + 1);
    last_done = done;
    EXPECT_EQ(total, static_cast<int>(jobs.size()));
  };
  const SweepReport report = SweepRunner(options).run_jobs(jobs, fake_solve);
  EXPECT_EQ(seen.size(), jobs.size());
  EXPECT_EQ(last_done, static_cast<int>(jobs.size()));
}

TEST(SweepRunnerTest, JsonlRecordsHaveSchemaFields) {
  SweepSpec spec = small_spec();
  spec.max_jobs = 1;
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(expand_spec(spec), fake_solve);
  const std::string json = to_json(report.jobs[0]);
  for (const char* key :
       {"\"job\":", "\"topology\":", "\"heuristic\":", "\"threshold\":",
        "\"partitions\":", "\"paths\":", "\"seed\":", "\"stream_seed\":",
        "\"status\":", "\"solve_status\":", "\"gap\":", "\"norm_gap\":",
        "\"bound\":", "\"nodes\":", "\"vars\":", "\"solve_seconds\":",
        "\"wall_seconds\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Wall-time fields are last so strip_wall_times-style diffs work.
  EXPECT_GT(json.find("\"wall_seconds\":"), json.find("\"solve_seconds\":"));
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// Runs `spec` with `threads` sweep lanes and each job's B&B on
// `mip_threads` threads; returns the payload with wall times stripped.
// Every job must solve, and `max_gap` collects the largest gap seen.
std::string real_sweep_payload(SweepSpec spec, int threads, int mip_threads,
                               double& max_gap) {
  spec.mip_threads = mip_threads;
  SweepOptions options;
  options.threads = threads;
  options.log_progress = false;
  const SweepReport report = SweepRunner(options).run(spec);
  EXPECT_EQ(report.num_ok, static_cast<int>(report.jobs.size()))
      << report.jsonl();
  for (const JobResult& job : report.jobs) {
    max_gap = std::max(max_gap, job.result.gap);
  }
  return strip_wall_times(report.jsonl());
}

// End-to-end determinism on the *real* solver stack, on two grids that
// solve to optimality well inside the budget. With serial B&Bs the
// payload must be byte-identical at any sweep width — the acceptance
// criterion of the sweep engine — including 4 lanes on a pool already
// wider than that. On the fig1 grid it must also survive nested
// parallelism: 4 sweep lanes with each job's B&B on 3 threads, all on
// the one shared scheduler. There only the node counts may differ: a
// B&B helper that a free worker picks up while the tree is still open
// explores nodes the serial tree never did, and whether one is free at
// that moment is a matter of timing (the retired unified_sched bench,
// which compared every byte, failed that way in about 2% of loaded
// runs). The fig1 optima have unique witnesses, so everything else must
// match. (B4's optima have ties, so a parallel B&B may return another
// witness.)
TEST(SweepRunnerTest, RealDpSweepIsDeterministicAcrossThreads) {
  domains::register_builtin();
  double max_gap = 0.0;
  {
    SCOPED_TRACE("b4 grid");
    SweepSpec spec;
    spec.topologies = {"b4"};
    spec.thresholds = {50.0, 150.0};
    spec.pairs = 4;
    spec.budget_seconds = 60.0;  // generous; jobs finish in well under 1s
    spec.deterministic = true;
    const std::string serial = real_sweep_payload(spec, 1, 1, max_gap);
    EXPECT_EQ(real_sweep_payload(spec, 2, 1, max_gap), serial);
    // The gap must be real: DP on B4 with a 150-unit threshold strands
    // capacity, so at least one job finds a strictly positive gap.
    EXPECT_GT(max_gap, 0.0);
  }
  {
    SCOPED_TRACE("fig1 grid");
    SweepSpec spec;
    spec.topologies = {"fig1"};
    spec.thresholds = {25.0, 50.0, 100.0};
    spec.seeds = {1, 2};
    spec.demand_ub = 200.0;
    spec.budget_seconds = 120.0;
    spec.deterministic = true;
    const std::string serial = real_sweep_payload(spec, 1, 1, max_gap);
    EXPECT_EQ(real_sweep_payload(spec, 2, 1, max_gap), serial);
    Scheduler::global().ensure_threads(4);
    EXPECT_EQ(real_sweep_payload(spec, 4, 1, max_gap), serial);
    // The records name the mip_threads they ran with, an input, so it
    // is stripped along with the node counts.
    static const std::regex kNodes("\"(nodes|mip_threads)\":[0-9]+");
    EXPECT_EQ(
        std::regex_replace(real_sweep_payload(spec, 4, 3, max_gap), kNodes, ""),
        std::regex_replace(serial, kNodes, ""));
  }
}

// End-to-end over the registry: a tiny FFD sweep goes through
// execute_job -> heur::make_instance -> binpack::find_ffd_gap and comes
// back with real items/dims/bins fields in the JSONL payload.
TEST(SweepRunnerTest, RealFfdSweepRunsThroughRegistry) {
  domains::register_builtin();
  SweepSpec spec;
  spec.heuristics = {Heuristic::Ffd};
  spec.items = {3};
  spec.seeds = {1};
  spec.budget_seconds = 30.0;
  spec.deterministic = true;
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  const SweepReport report = SweepRunner(options).run(spec);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.num_ok, 1) << report.jsonl();
  const std::string json = to_json(report.jobs[0]);
  EXPECT_NE(json.find("\"heuristic\":\"ffd\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dims\":1"), std::string::npos);
  // 3 items cannot produce a positive FFD-vs-OPT gap, but the job must
  // still carry a genuine adversarial input (gap >= 0).
  EXPECT_GE(report.jobs[0].result.gap, 0.0);
  EXPECT_EQ(report.jobs[0].result.volumes.size(), 3u);
}

// An unregistered heuristic name in a hand-built job must surface as a
// per-job failure with the registry's message, not kill the campaign.
TEST(SweepRunnerTest, UnknownHeuristicJobFailsWithClearMessage) {
  domains::register_builtin();
  SweepSpec spec;
  spec.heuristics = {Heuristic::Ffd};
  spec.items = {3};
  const std::vector<JobSpec> jobs = expand_spec(spec);
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(jobs, [](const JobSpec&) {
        heur::InstanceConfig config;
        config.heuristic = "bogus";
        return heur::make_instance(config)->find_gap({});
      });
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.num_failed, 1);
  EXPECT_NE(report.jobs[0].error.find("bogus"), std::string::npos);
}

TEST(SweepRunnerTest, JobMetricsAggregateSpawnedWorkerShards) {
  domains::register_builtin();
  // A job that fans out onto scheduler workers (mip-threads=2 on one
  // sweep lane) must still attribute the WHOLE tree to its "metrics"
  // delta: the shard-group bracket follows the job onto its B&B
  // helpers. A thread-only diff would count just the lane thread's
  // share and the node accounting below would not balance.
  obs::set_enabled(true);
  SweepSpec spec;
  spec.topologies = {"fig1"};
  spec.thresholds = {50.0};
  spec.demand_ub = 200.0;
  spec.budget_seconds = 60.0;
  spec.deterministic = true;
  spec.mip_threads = 2;
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  const SweepReport report = SweepRunner(options).run(spec);
  obs::set_enabled(false);
  ASSERT_EQ(report.num_ok, 1);
  const obs::MetricsSnapshot& d = report.jobs[0].metrics;
  const auto metric = [&d](const char* name) {
    const obs::MetricValue* m = d.find(name);
    return m ? m->value : 0.0;
  };
  // Both B&B workers' solver constructions are attributed to the job...
  EXPECT_EQ(metric("bnb.solver_instances"), 2.0);
  // ...and the node outcome ledger balances, which it cannot do if any
  // worker's share leaked out of the delta.
  const double popped = metric("bnb.nodes_popped");
  EXPECT_GT(popped, 0.0);
  EXPECT_EQ(popped, metric("bnb.nodes_pruned_bound") +
                        metric("bnb.nodes_pruned_infeasible") +
                        metric("bnb.nodes_integer_feasible") +
                        metric("bnb.nodes_branched") +
                        metric("bnb.nodes_failed") +
                        metric("bnb.nodes_aborted") +
                        metric("bnb.nodes_unbounded"));
}

// With recording off no job takes metric snapshots, so no record
// carries a "metrics" object (the registered gauges used to ride along
// as zeros).
TEST(SweepRunnerTest, NoMetricsObjectWithRecordingOff) {
  domains::register_builtin();
  obs::set_enabled(false);
  SweepSpec spec;
  spec.topologies = {"fig1"};
  spec.thresholds = {25.0, 50.0};
  spec.demand_ub = 200.0;
  spec.budget_seconds = 60.0;
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  const SweepReport report = SweepRunner(options).run(spec);
  ASSERT_EQ(report.num_ok, 2);
  for (const JobResult& job : report.jobs) {
    EXPECT_TRUE(job.metrics.empty());
    EXPECT_EQ(job.serialized.find("\"metrics\""), std::string::npos)
        << job.serialized;
  }
}

TEST(SweepRunnerTest, WritesJsonlAndCsvArtifacts) {
  SweepSpec spec = small_spec();
  spec.max_jobs = 2;
  const std::string dir = ::testing::TempDir() + "metaopt_runner_test";
  const std::string jsonl_path = dir + "/out/sweep.jsonl";
  const std::string csv_path = dir + "/out/sweep.csv";
  std::filesystem::remove_all(dir);
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  options.jsonl_path = jsonl_path;
  const SweepReport report =
      SweepRunner(options).run_jobs(expand_spec(spec), fake_solve);
  EXPECT_EQ(read_file(jsonl_path), report.jsonl());
  report.write_csv(csv_path, "sweeptest");

  std::ifstream jsonl_in(jsonl_path);
  ASSERT_TRUE(jsonl_in.good());
  std::string line;
  int lines = 0;
  while (std::getline(jsonl_in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 2);

  std::ifstream csv_in(csv_path);
  ASSERT_TRUE(csv_in.good());
  ASSERT_TRUE(std::getline(csv_in, line));
  EXPECT_EQ(line, "figure,series,x,y,extra");
  ASSERT_TRUE(std::getline(csv_in, line));
  EXPECT_NE(line.find("sweeptest,b4/dp"), std::string::npos);
}

// Regression (sweep-pipeline bugfix batch): write_csv used to emit a row
// for every job, including Failed ones whose `result` is documented
// invalid — garbage gaps straight into the figure data.
TEST(SweepRunnerTest, CsvSkipsFailedJobs) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(jobs, [](const JobSpec& job) {
        if (job.id % 3 == 0) throw std::runtime_error("injected failure");
        return fake_solve(job);
      });
  ASSERT_GT(report.num_failed, 0);
  ASSERT_GT(report.num_ok, 0);

  const std::string csv_path =
      ::testing::TempDir() + "metaopt_runner_test_failed.csv";
  std::filesystem::remove(csv_path);  // CsvWriter appends by design
  report.write_csv(csv_path, "failtest");
  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  int rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  // Exactly the Ok jobs made it into the figure data.
  EXPECT_EQ(rows, report.num_ok);
}

// Regression (sweep-pipeline bugfix batch): the CSV series column was
// hardcoded to "<topology>/<heuristic>", mislabeling bin-packing jobs
// with a topology that means nothing to them.
TEST(SweepRunnerTest, CsvSeriesIsFamilyAware) {
  SweepSpec spec;
  spec.topologies = {"b4"};
  spec.heuristics = {Heuristic::Dp, Heuristic::Ffd};
  spec.thresholds = {50.0};
  spec.items = {6};
  spec.dims = 2;
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  const SweepReport report =
      SweepRunner(options).run_jobs(expand_spec(spec), fake_solve);
  ASSERT_EQ(report.num_ok, 2);

  const std::string csv_path =
      ::testing::TempDir() + "metaopt_runner_test_series.csv";
  std::filesystem::remove(csv_path);  // CsvWriter appends by design
  report.write_csv(csv_path, "famtest");
  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good());
  std::string all, line;
  while (std::getline(in, line)) all += line + "\n";
  // TE series keep the topology; bin-packing series carry the dims.
  EXPECT_NE(all.find("famtest,b4/dp"), std::string::npos);
  EXPECT_NE(all.find("famtest,ffd/d2"), std::string::npos);
  EXPECT_EQ(all.find("famtest,b4/ffd"), std::string::npos)
      << "binpack row mislabeled with a topology:\n"
      << all;
}

// ------------------------------------------------- sharding and resume

SweepSpec shard_spec() {
  SweepSpec spec = small_spec();
  spec.seeds = {1, 2, 3, 4};  // 2 topologies x 3 thresholds x 4 = 24 jobs
  return spec;
}

TEST(SweepRunnerTest, ShardedRunsMergeByteIdentical) {
  const std::vector<JobSpec> jobs = expand_spec(shard_spec());
  ASSERT_EQ(jobs.size(), 24u);

  // Reference: unsharded, single-threaded.
  SweepOptions ref_options;
  ref_options.threads = 1;
  ref_options.log_progress = false;
  const std::string reference = strip_wall_times(
      SweepRunner(ref_options).run_jobs(jobs, fake_solve).jsonl());

  const std::string dir = ::testing::TempDir() + "metaopt_shard_test";
  for (const int shard_count : {1, 3}) {
    for (const int threads : {1, 2, 4}) {
      std::vector<std::string> shard_paths;
      for (int shard = 0; shard < shard_count; ++shard) {
        const std::string path = dir + "/s" + std::to_string(shard_count) +
                                 "_t" + std::to_string(threads) + "_" +
                                 std::to_string(shard) + ".jsonl";
        SweepOptions options;
        options.threads = threads;
        options.log_progress = false;
        options.shard_index = shard;
        options.shard_count = shard_count;
        options.jsonl_path = path;
        const SweepReport report =
            SweepRunner(options).run_jobs(jobs, fake_solve);
        // Each shard ran its slice and nothing else.
        int expected = 0;
        for (const JobSpec& job : jobs) {
          if (job.id % shard_count == shard) ++expected;
        }
        EXPECT_EQ(static_cast<int>(report.jobs.size()), expected);
        shard_paths.push_back(path);
      }
      const std::string merged =
          strip_wall_times(merge_shard_jsonl(shard_paths));
      EXPECT_EQ(merged, reference)
          << "shards=" << shard_count << " threads=" << threads;
    }
  }
}

TEST(SweepRunnerTest, MergeRejectsOverlappingShards) {
  const std::string path =
      ::testing::TempDir() + "metaopt_shard_test_overlap.jsonl";
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  options.jsonl_path = path;
  (void)SweepRunner(options).run_jobs(expand_spec(small_spec()), fake_solve);
  EXPECT_THROW(merge_shard_jsonl({path, path}), std::runtime_error);
}

TEST(SweepRunnerTest, RunJobsRejectsBadShardOptions) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  SweepOptions options;
  options.log_progress = false;
  options.shard_count = 0;
  EXPECT_THROW((void)SweepRunner(options).run_jobs(jobs, fake_solve),
               std::invalid_argument);
  options.shard_count = 3;
  options.shard_index = 3;
  EXPECT_THROW((void)SweepRunner(options).run_jobs(jobs, fake_solve),
               std::invalid_argument);
}

// A progress callback that throws once `n` jobs have completed: the
// campaign stops as a kill would, after the running jobs finished and
// appended their records.
std::function<void(const JobResult&, int, int)> kill_after(int n) {
  return [n](const JobResult&, int done, int) {
    if (done >= n) throw std::runtime_error("killed");
  };
}

TEST(SweepRunnerTest, KillAndResumeSkipsCompletedJobs) {
  const std::vector<JobSpec> jobs = expand_spec(shard_spec());
  const std::string dir = ::testing::TempDir() + "metaopt_resume_test";
  std::filesystem::remove_all(dir);
  SweepOptions ref_options;
  ref_options.threads = 1;
  ref_options.log_progress = false;
  const std::string reference = strip_wall_times(
      SweepRunner(ref_options).run_jobs(jobs, fake_solve).jsonl());

  for (const int threads : {1, 2}) {
    for (const int shard_count : {1, 3}) {
      // Count executions per job id across kill + resume: the resume
      // contract is that no job whose record was written runs twice.
      std::vector<std::atomic<int>> executions(jobs.size());
      const auto counting_solve = [&executions](const JobSpec& job) {
        executions[static_cast<std::size_t>(job.id)].fetch_add(1);
        return fake_solve(job);
      };
      std::vector<std::string> shard_paths;
      for (int shard = 0; shard < shard_count; ++shard) {
        const std::string path = dir + "/t" + std::to_string(threads) + "_s" +
                                 std::to_string(shard_count) + "_" +
                                 std::to_string(shard) + ".jsonl";
        SweepOptions options;
        options.threads = threads;
        options.log_progress = false;
        options.shard_index = shard;
        options.shard_count = shard_count;
        options.jsonl_path = path;
        // First run: killed once 5 jobs completed.
        options.on_progress = kill_after(5);
        EXPECT_THROW((void)SweepRunner(options).run_jobs(jobs, counting_solve),
                     std::runtime_error);
        const std::string killed = read_file(path);
        const int written = static_cast<int>(
            std::count(killed.begin(), killed.end(), '\n'));
        EXPECT_GE(written, 5);
        // Second run resumes from the killed file into the same path.
        options.on_progress = nullptr;
        options.resume_jsonl = path;
        const SweepReport resumed =
            SweepRunner(options).run_jobs(jobs, counting_solve);
        EXPECT_EQ(resumed.num_resumed, written);
        EXPECT_EQ(resumed.num_ok, static_cast<int>(resumed.jobs.size()));
        EXPECT_EQ(read_file(path), resumed.jsonl());
        shard_paths.push_back(path);
      }
      for (std::size_t i = 0; i < executions.size(); ++i) {
        EXPECT_EQ(executions[i].load(), 1)
            << "job " << i << " threads=" << threads
            << " shards=" << shard_count;
      }
      // The stitched campaign equals an uninterrupted unsharded run.
      EXPECT_EQ(strip_wall_times(merge_shard_jsonl(shard_paths)), reference)
          << "threads=" << threads << " shards=" << shard_count;
    }
  }
}

// Runs `jobs` resuming from `path`; returns the error message ("" when
// the resume was accepted).
std::string resume_error(const std::vector<JobSpec>& jobs,
                         const std::string& path, int shard_index = 0,
                         int shard_count = 1) {
  SweepOptions options;
  options.threads = 1;
  options.log_progress = false;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.resume_jsonl = path;
  try {
    (void)SweepRunner(options).run_jobs(jobs, fake_solve);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SweepRunnerTest, ResumeRejectsMismatchedCampaign) {
  const std::vector<JobSpec> jobs = expand_spec(small_spec());
  const std::string dir = ::testing::TempDir() + "metaopt_resume_mismatch";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/sweep.jsonl";
  SweepOptions first;
  first.threads = 1;
  first.log_progress = false;
  first.jsonl_path = path;
  (void)SweepRunner(first).run_jobs(jobs, fake_solve);
  EXPECT_EQ(resume_error(jobs, path), "");

  // One field of one job differs: that job's record is refused by name.
  std::vector<JobSpec> edited = jobs;
  edited[3].threshold += 1e-9;
  EXPECT_NE(resume_error(edited, path).find("job 3 was written for a "
                                            "different spec"),
            std::string::npos);
  edited = jobs;
  edited[0].deterministic = !edited[0].deterministic;
  EXPECT_NE(resume_error(edited, path).find("job 0 "), std::string::npos);
  edited = jobs;
  edited[5].demand_ub = 200.0;
  EXPECT_NE(resume_error(edited, path).find("job 5 "), std::string::npos);

  // Records of another shard are refused, and so is a repeated job.
  const std::string shard1 = dir + "/shard1.jsonl";
  SweepOptions sharded = first;
  sharded.shard_index = 1;
  sharded.shard_count = 3;
  sharded.jsonl_path = shard1;
  (void)SweepRunner(sharded).run_jobs(jobs, fake_solve);
  EXPECT_EQ(resume_error(jobs, shard1, 1, 3), "");
  EXPECT_NE(resume_error(jobs, shard1, 0, 3)
                .find("job 1 is not one of this shard's jobs"),
            std::string::npos);
  const std::string doubled = dir + "/doubled.jsonl";
  std::ofstream(doubled) << read_file(path) << read_file(path);
  EXPECT_NE(resume_error(jobs, doubled).find("job 0 appears twice"),
            std::string::npos);
}

TEST(SweepRunnerTest, ResumeSkipsATornFinalLine) {
  const std::vector<JobSpec> jobs = expand_spec(shard_spec());
  const std::string dir = ::testing::TempDir() + "metaopt_resume_torn";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/sweep.jsonl";
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  options.jsonl_path = path;
  const std::string reference =
      strip_wall_times(SweepRunner(options).run_jobs(jobs, fake_solve).jsonl());

  // A kill mid-append leaves the last record without its newline.
  const std::string full = read_file(path);
  std::ofstream(path, std::ios::trunc) << full.substr(0, full.size() - 20);
  std::vector<std::atomic<int>> executions(jobs.size());
  options.resume_jsonl = path;
  const SweepReport resumed =
      SweepRunner(options).run_jobs(jobs, [&executions](const JobSpec& job) {
        executions[static_cast<std::size_t>(job.id)].fetch_add(1);
        return fake_solve(job);
      });
  EXPECT_EQ(resumed.num_resumed, static_cast<int>(jobs.size()) - 1);
  for (std::size_t i = 0; i < executions.size(); ++i) {
    EXPECT_EQ(executions[i].load(), i + 1 == jobs.size() ? 1 : 0)
        << "job " << i;
  }
  EXPECT_EQ(strip_wall_times(read_file(path)), reference);
}

}  // namespace
}  // namespace metaopt::runner
