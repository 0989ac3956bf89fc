// The repository benchmark: fixed-work workloads through the public entry
// points of core, runner, search and explain.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --list-metrics
//
// Every operation does a fixed amount of work: white-box finds stop at a
// branch-and-bound node budget (or run the tree to proof), black-box
// searches at an evaluation count, explains at their probe fixpoint.
// Seeding passes are off and B&B runs one thread per solve, so the same
// nodes, evaluations and probes happen in every run and only their speed
// varies. Wall-clock limits stay as safety caps; a run in which one fires
// counts as failed, because the work changed.
//
// A workload has a cycle of operations built from the seed. A run sets
// its inputs up several times (the median is setup_s), then repeats the
// cycle for --seconds, always completing the first cycle. Every repeat of
// an operation must do exactly the work of its first execution. Times are
// CPU seconds: the work is fixed and its threads never wait on anything
// but each other, so CPU time is the work's cost, and unlike wall time it
// does not grow while other tenants of a shared host hold the cores. They
// are scaled to a reference host speed (HostSpeed), and each operation of
// the cycle is timed by the median of its repeats, so every operation
// counts once whichever ran more often.
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// runs half the time untraced and half traced (obs recording on,
// bench-side spans around every library call) and prints the per-layer
// metrics, per operation. Every answer is checked: a failed check is
// printed, counted in `failed`, and makes the exit code 1. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/adversarial.h"
#include "domains/domains.h"
#include "domains/te_instances.h"
#include "explain/explain.h"
#include "heur/instance.h"
#include "obs/obs.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "search/search.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "tracing.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/tolerances.h"

namespace metaopt::perfbench {
namespace {

/// Wall-clock safety cap on every solve and search, far above the fixed
/// work. If it fires, the run fails.
constexpr double kSafetyCapSeconds = 60.0;

/// Shortest CPU time of one set-up sample.
constexpr double kSetupSampleS = 0.02;

// ---- metric names (BENCHMARK.json lists exactly these) ----

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"op_cpu_s", "s"},
    {"work_per_cpu_s", "1/s"},
    {"gap_norm", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.find_s", "s"},
    {"core.build_s", "s"},
    {"core.time_to_best_s", "s"},
    {"mip.nodes", "count"},
    {"mip.node_s", "s"},
    {"mip.lp_solves", "count"},
    {"mip.incumbent_updates", "count"},
    {"mip.popped", "count"},
    {"mip.pruned", "count"},
    {"mip.pruned_ratio", "ratio"},
    {"mip.node_unowned_s", "s"},
    {"lp.solves", "count"},
    {"lp.solve_s", "s"},
    {"lp.pivots", "count"},
    {"lp.degenerate_pivots", "count"},
    {"lp.degenerate_ratio", "ratio"},
    {"lp.revised_pivots", "count"},
    {"lp.warm_solves", "count"},
    {"lp.warm_fallbacks", "count"},
    {"lp.warm_fallback_ratio", "ratio"},
    {"lp.refactorizations", "count"},
    {"lp.factor_cache_hits", "count"},
    {"lp.factor_cache_hit_ratio", "ratio"},
    {"lp.presolve_runs", "count"},
    {"lp.presolve_tightenings", "count"},
    {"kkt.emit_s", "s"},
    {"kkt.complementarities", "count"},
    {"te.evaluate_s", "s"},
    {"te.evaluations", "count"},
    {"te.max_flow_s", "s"},
    {"te.dp_s", "s"},
    {"binpack.opt_solves", "count"},
    {"binpack.opt_s", "s"},
    {"binpack.simulations", "count"},
    {"search.evaluations", "count"},
    {"search.improvements", "count"},
    {"search.restarts", "count"},
    {"search.overhead_s", "s"},
    {"search.time_to_best_s", "s"},
    {"search.hill_evals_per_s", "1/s"},
    {"search.random_evals_per_s", "1/s"},
    {"explain.probes", "count"},
    {"explain.probe_s", "s"},
    {"explain.probes_per_s", "1/s"},
    {"explain.cache_hits", "count"},
    {"explain.cache_hit_ratio", "ratio"},
    {"runner.jobs", "count"},
    {"runner.job_s", "s"},
    {"runner.busy_s", "s"},
    {"runner.capacity_s", "s"},
    {"runner.idle_frac", "ratio"},
    {"sched.steals", "count"},
    {"sched.inline_joins", "count"},
    {"trace.untraced_op_cpu_s", "s"},
    {"trace.traced_op_cpu_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.wall_per_cpu", "ratio"},
    {"trace.spans", "count"},
    {"host.kernel_s", "s"},
};

// ---- small helpers ----

/// Median; the mean of the middle two of an even count, 0 when empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds used so far by every thread of this process.
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU seconds used so far by the calling thread.
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// The host-speed kernel: dense LU with partial pivoting of a fixed 48x48
/// matrix, repeated: cache-resident floating-point work with
/// data-dependent branches, like the simplex's inner loops. It works on
/// the stack (no allocation) and is kept out of line and 64-byte aligned,
/// so its code layout, and with it its speed, stays the same when code
/// around it changes. Returns a value that depends on every repeat.
[[gnu::noinline, gnu::aligned(64)]] double lu_kernel(const double* matrix) {
  constexpr int kN = 48;
  constexpr int kRepeats = 100;
  double sum = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::array<double, kN * kN> a;
    std::copy(matrix, matrix + kN * kN, a.begin());
    for (int k = 0; k < kN; ++k) {
      int pivot = k;
      for (int i = k + 1; i < kN; ++i) {
        if (std::abs(a[i * kN + k]) > std::abs(a[pivot * kN + k])) pivot = i;
      }
      if (pivot != k) {
        for (int j = 0; j < kN; ++j) std::swap(a[k * kN + j], a[pivot * kN + j]);
      }
      for (int i = k + 1; i < kN; ++i) {
        const double f = a[i * kN + k] / a[k * kN + k];
        for (int j = k + 1; j < kN; ++j) a[i * kN + j] -= f * a[k * kN + j];
      }
    }
    sum += a[kN * kN - 1];
  }
  return sum;
}

/// Scales CPU seconds to a reference host speed.
///
/// On a shared host, other tenants slow this process's CPU as well as
/// its wall clock (shared cores, caches and clock frequency): the same
/// search ran up to 2x slower from one second to the next on a 4-vCPU
/// cloud VM, and whole runs by a quarter. So each timed region is
/// bracketed by a short fixed kernel of the benchmark's own code, run on
/// the same thread, and its CPU time is multiplied by kReferenceS / (mean
/// of the two kernel readings). A change to the library cannot move the
/// kernel, so a faster library shows in full, while a slower host
/// cancels out.
class HostSpeed {
 public:
  /// The kernel's CPU time on the reference host (Intel Xeon, 4-vCPU
  /// cloud VM, uncontended), so scaled times read as CPU seconds there.
  static constexpr double kReferenceS = 0.0035;

  HostSpeed() : matrix_(48 * 48) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (double& x : matrix_) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      x = static_cast<double>(state >> 40) / static_cast<double>(1ULL << 24);
    }
  }

  /// `cpu` seconds of a region bracketed by two readings, scaled.
  static double scale(double cpu, double before, double after) {
    return cpu * kReferenceS / (0.5 * (before + after));
  }

  /// Runs lu_kernel on the calling thread and returns its thread CPU
  /// seconds. Thread-safe.
  double reading() {
    const double cpu0 = thread_cpu_seconds();
    volatile double sink = lu_kernel(matrix_.data());  // keeps it live
    (void)sink;
    const double cpu = thread_cpu_seconds() - cpu0;
    const std::lock_guard<std::mutex> lock(mutex_);
    readings_.push_back(cpu);
    return cpu;
  }

  /// Median of every reading so far.
  [[nodiscard]] double median_reading() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return median(readings_);
  }

 private:
  std::vector<double> matrix_;
  std::mutex mutex_;
  std::vector<double> readings_;
};

/// Times consecutive regions of the calling thread: each region's CPU
/// time is scaled by the kernel readings on either side of it.
class ScaledClock {
 public:
  explicit ScaledClock(HostSpeed& host) : host_(host), last_(host.reading()) {}
  /// Scales `cpu` seconds timed since the last reading, and reads again.
  double scale(double cpu) {
    const double before = last_;
    last_ = host_.reading();
    return HostSpeed::scale(cpu, before, last_);
  }

 private:
  HostSpeed& host_;
  double last_;
};

/// Peak resident set of this process (VmHWM), in MiB. Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launching
/// interpreter's footprint does not leak in.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// Re-scored gaps must match the reported ones to this tolerance.
bool same_gap(double a, double b) {
  return std::abs(a - b) <= tol::kAssembledPointTol * (1.0 + std::abs(b));
}

/// Turns obs recording off for the benchmark's own checks, so the
/// per-layer counters only see the workload's calls.
class ObsPaused {
 public:
  ObsPaused() : was_(obs::enabled()) { obs::set_enabled(false); }
  ~ObsPaused() { obs::set_enabled(was_); }
  ObsPaused(const ObsPaused&) = delete;
  ObsPaused& operator=(const ObsPaused&) = delete;

 private:
  bool was_;
};

// ---- run state shared by the workloads ----

struct Run {
  std::uint64_t seed = 1;
  bool traced = false;  ///< current phase records obs metrics and spans
  SpanLog spans;
  HostSpeed host;
  long attempted = 0;
  long failed = 0;
  /// Workload-side totals over the traced operations (decorator times,
  /// replays, job walls, time to best), keyed like the metric they feed.
  std::map<std::string, double> sums;

  /// Counts one unit of fixed work (a find, job, search or explain) and
  /// whether all of its checks passed.
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A check that fails after its unit was recorded (a repeat that did
  /// different work, a replayed solve) fails that unit.
  void fail_recorded_unit() { failed = std::min(failed + 1, attempted); }
  bool check(bool ok, const std::string& what) {
    if (!ok) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    return ok;
  }
  void add(const std::string& key, double v) {
    if (traced) sums[key] += v;
  }
};

/// What one operation did.
struct OpResult {
  /// Wall and process CPU time of the workload's own calls (checks
  /// excluded).
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Work done, in the workload's unit (work_per_cpu_s).
  double work = 0.0;
  /// Scaled CPU time of each part, when the workload times the parts
  /// itself (prove_grid: each job, on its pool thread); else empty. Each
  /// part counts as one operation in op_cpu_s.
  std::vector<double> parts_s;
  /// Normalized gap of the operation's answer; none for an explain.
  std::optional<double> gap_norm;
  /// Work counts and answers; a repeat must reproduce them exactly.
  std::vector<double> signature;
};

/// Adds the wall and CPU time since construction to an operation.
class OpTimer {
 public:
  OpTimer() : cpu0_(cpu_seconds()) {}
  /// Returns the wall seconds added.
  double add_to(OpResult& op) const {
    const double wall = watch_.seconds();
    op.wall_s += wall;
    op.cpu_s += cpu_seconds() - cpu0_;
    return wall;
  }

 private:
  util::Stopwatch watch_;
  double cpu0_;
};

class Workload {
 public:
  explicit Workload(Run& run) : run_(run) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds every input from the seed. Repeated for setup_s.
  virtual void setup() = 0;
  /// Distinct operations per cycle.
  [[nodiscard]] virtual int cycle_length() const { return 1; }
  virtual OpResult run_op(int index) = 0;
  /// Work unit of work_p90_per_s, for the printed summary.
  [[nodiscard]] virtual const char* work_unit() const = 0;

 protected:
  Run& run_;
};

std::unique_ptr<heur::HeuristicInstance> make_te(const std::string& heuristic,
                                                 const std::string& topology) {
  heur::InstanceConfig config;
  config.heuristic = heuristic;
  config.topology = topology;
  config.threshold = 50.0;
  return heur::make_instance(config);
}

const domains::TeInstanceBase& te_of(const heur::HeuristicInstance& inst) {
  return dynamic_cast<const domains::TeInstanceBase&>(inst);
}

/// Direct TE solves of leader vectors the workload produced
/// (te.max_flow_s, te.dp_s); DP only when `dp` is given.
void replay_te(Run& run, const domains::TeInstanceBase& te,
               const std::vector<std::vector<double>>& vectors,
               const te::DpConfig* dp) {
  for (const std::vector<double>& v : vectors) {
    {
      const ScopedSpan span(run.spans, "te.max_flow");
      const util::Stopwatch watch;
      const te::MaxFlowResult r =
          te::solve_max_flow(te.topology(), te.paths(), v);
      run.add("te.max_flow_s", watch.seconds());
      run.add("te.max_flow_calls", 1.0);
      if (!run.check(r.status == lp::SolveStatus::Optimal,
                     "replayed max-flow solve")) {
        run.fail_recorded_unit();
      }
    }
    if (dp != nullptr) {
      const ScopedSpan span(run.spans, "te.dp");
      const util::Stopwatch watch;
      (void)te::solve_demand_pinning(te.topology(), te.paths(), v, *dp);
      run.add("te.dp_s", watch.seconds());
      run.add("te.dp_calls", 1.0);
    }
  }
}

// ---- find_te: white-box single-shot finds at a node budget ----

/// Operation 0 of the cycle is a DP find on Abilene (all 110 pairs,
/// T = 50); the others are POP finds on B4 (12-pair support, 2
/// partitions, 3 instantiations; one seeded instance each).
class FindTe final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    dp_ = make_te("dp", "abilene");
    dp_oracle_ = dp_->make_oracle();
    pops_.clear();
    pop_oracles_.clear();
    for (int k = 0; k < kPops; ++k) {
      heur::InstanceConfig pop;
      pop.heuristic = "pop";
      pop.topology = "b4";
      pop.support = kPopSupport;
      pop.partitions = kPartitions;
      for (int r = 0; r < 3; ++r) {
        pop.pop_seeds.push_back(util::derive_seed(run_.seed, 100 + 3 * k + r));
      }
      pops_.push_back(heur::make_instance(pop));
      pop_oracles_.push_back(pops_.back()->make_oracle());
    }
  }

  int cycle_length() const override { return 1 + kPops; }
  const char* work_unit() const override { return "B&B nodes"; }

  OpResult run_op(int index) override {
    OpResult op;
    op.gap_norm = index == 0 ? find(*dp_, *dp_oracle_, kDpNodes, op)
                             : find(*pops_[index - 1], *pop_oracles_[index - 1],
                                    kPopNodes, op);
    return op;
  }

 private:
  static constexpr int kPops = 5;
  static constexpr long kDpNodes = 180;  ///< DP reaches gap 100 near node 170
  static constexpr long kPopNodes = 40;
  static constexpr int kPopSupport = 12;
  static constexpr int kPartitions = 2;

  /// Runs one find through core::AdversarialGapFinder (heur::FindOptions
  /// has no node budget yet), checks it, adds its time, nodes and answer
  /// to `op`, and returns its normalized gap.
  double find(const heur::HeuristicInstance& inst,
              const heur::GapOracle& oracle, long nodes, OpResult& op) {
    const domains::TeInstanceBase& te = te_of(inst);
    const auto* pop = dynamic_cast<const domains::TePopInstance*>(&inst);

    core::AdversarialOptions options;
    options.demand_ub = te.leader_ub();
    options.pair_mask = te.pair_mask();
    options.mip.max_nodes = nodes;
    options.mip.time_limit_seconds = kSafetyCapSeconds;
    options.mip.threads = 1;
    options.seed_search_seconds = 0.0;
    const core::AdversarialGapFinder finder(te.topology(), te.paths());
    te::DpConfig dp;
    dp.threshold = 50.0;
    te::PopConfig pop_config;
    pop_config.num_partitions = kPartitions;

    heur::GapFindResult r;
    {
      const ScopedSpan span(run_.spans, "core.find");
      const OpTimer timer;
      r = pop ? finder.find_pop_gap(pop_config, pop->seeds(), options)
              : finder.find_dp_gap(dp, options);
      timer.add_to(op);
    }
    op.work += static_cast<double>(r.nodes);
    op.signature.insert(op.signature.end(),
                        {static_cast<double>(r.nodes), r.gap, r.bound});
    if (run_.traced) {
      const ScopedSpan span(run_.spans, "core.build");
      const util::Stopwatch watch;
      (void)(pop ? finder.pop_problem_sizes(pop_config, pop->seeds(), options)
                 : finder.dp_problem_sizes(dp, options));
      run_.add("core.build_s", watch.seconds());
    }
    if (!r.trace.empty()) {
      run_.add("core.time_to_best_s", r.trace.back().first);
      run_.add("core.finds", 1.0);
    }

    const ObsPaused paused;
    const std::string what = inst.name() + " find";
    bool ok =
        run_.check(r.status == lp::SolveStatus::Feasible ||
                       r.status == lp::SolveStatus::Optimal,
                   what + " ended " + lp::to_string(r.status) +
                       " (a safety cap fired or the solver failed)") &&
        run_.check(r.nodes == nodes || r.status == lp::SolveStatus::Optimal,
                   what + " explored " + std::to_string(r.nodes) +
                       " nodes of a budget of " + std::to_string(nodes)) &&
        run_.check(r.has_solution(), what + " has no witness");
    if (ok) {
      const double rescored = oracle.evaluate(r.volumes).gap();
      ok = run_.check(same_gap(rescored, r.gap),
                      what + " gap " + std::to_string(r.gap) +
                          " re-scores to " + std::to_string(rescored));
    }
    run_.record(ok);
    if (run_.traced && ok) replay_te(run_, te, {r.volumes}, pop ? nullptr : &dp);
    return r.normalized_gap;
  }

  std::unique_ptr<heur::HeuristicInstance> dp_;
  std::unique_ptr<heur::GapOracle> dp_oracle_;  ///< re-scores witnesses
  std::vector<std::unique_ptr<heur::HeuristicInstance>> pops_;
  std::vector<std::unique_ptr<heur::GapOracle>> pop_oracles_;
};

// ---- prove_grid: a campaign whose every job is solved to proof ----

class ProveGrid final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    const std::vector<std::string> common = {
        "budget=" + std::to_string(static_cast<int>(kSafetyCapSeconds)),
        "seed-fraction=0", "deterministic=1", "certify=1", "mip-threads=1",
        "base-seed=" + std::to_string(run_.seed)};
    jobs_.clear();
    for (std::vector<std::string> tokens :
         {std::vector<std::string>{"topology=fig1", "heuristic=dp,ffd",
                                   "threshold=25,50,100", "items=8..10",
                                   "dims=1"},
          std::vector<std::string>{"heuristic=ffd", "items=6", "dims=2"}}) {
      tokens.insert(tokens.end(), common.begin(), common.end());
      for (runner::JobSpec job :
           runner::expand_spec(runner::parse_sweep_spec(tokens))) {
        job.id = static_cast<int>(jobs_.size());
        jobs_.push_back(job);
      }
    }
    // Each job's instance, built once up front to re-score its witness.
    instances_.clear();
    oracles_.clear();
    for (const runner::JobSpec& job : jobs_) {
      instances_.push_back(heur::make_instance(instance_config(job)));
      oracles_.push_back(instances_.back()->make_oracle());
    }
  }

  const char* work_unit() const override { return "jobs"; }

  OpResult run_op(int /*index*/) override {
    runner::SweepOptions options;
    options.threads = kWorkers;
    options.log_progress = false;
    const runner::SweepRunner sweep(options);

    runner::SweepReport report;
    OpResult op;
    {
      const ScopedSpan campaign(run_.spans, "runner.campaign");
      const int parent = campaign.index();
      // Each job is timed on its pool thread, bracketed by kernel readings
      // on that thread, so the scaling sees what the job's core saw.
      op.parts_s.assign(jobs_.size(), 0.0);
      const OpTimer timer;
      report = sweep.run_jobs(jobs_, [this, parent, &op](const runner::JobSpec& job) {
        const ScopedSpan span(run_.spans, "runner.job", parent);
        const double before = run_.host.reading();
        const double cpu0 = thread_cpu_seconds();
        heur::GapFindResult result = runner::SweepRunner::execute_job(job);
        const double cpu = thread_cpu_seconds() - cpu0;
        op.parts_s[static_cast<std::size_t>(job.id)] =
            HostSpeed::scale(cpu, before, run_.host.reading());
        return result;
      });
      timer.add_to(op);
    }

    const ObsPaused paused;
    op.work = static_cast<double>(report.jobs.size());
    std::vector<double> gaps;
    double busy_s = 0.0;
    for (std::size_t j = 0; j < report.jobs.size(); ++j) {
      const runner::JobResult& job = report.jobs[j];
      const heur::GapFindResult& r = job.result;
      const std::string what = "job " + std::to_string(job.spec.id) + " (" +
                               runner::to_string(job.spec.heuristic) + " x=" +
                               std::to_string(job.spec.axis_value()) + ")";
      const double reference = reference_gap(job.spec);
      bool ok =
          run_.check(job.status == runner::JobStatus::Ok,
                     what + " status " + runner::to_string(job.status) + " " +
                         job.error) &&
          run_.check(r.status == lp::SolveStatus::Optimal,
                     what + " ended " + lp::to_string(r.status) +
                         ", not proven optimal") &&
          run_.check(r.certified, what + " is not certified") &&
          run_.check(same_gap(r.gap, reference),
                     what + " gap " + std::to_string(r.gap) +
                         ", reference " + std::to_string(reference));
      if (ok) {
        const double rescored = oracles_[j]->evaluate(r.volumes).gap();
        ok = run_.check(same_gap(rescored, r.gap),
                        what + " re-scores to " + std::to_string(rescored));
      }
      run_.record(ok);
      op.signature.insert(op.signature.end(),
                          {static_cast<double>(r.nodes), r.gap});
      gaps.push_back(r.normalized_gap);
      busy_s += job.wall_seconds;
      run_.add("runner.job_s", job.wall_seconds);
      run_.add("runner.jobs", 1.0);
      run_.add("core.find_s", r.seconds);
      if (!r.trace.empty()) {
        run_.add("core.time_to_best_s", r.trace.back().first);
        run_.add("core.finds", 1.0);
      }
      if (run_.traced && ok && job.spec.heuristic == runner::Heuristic::Dp) {
        te::DpConfig dp;
        dp.threshold = job.spec.threshold;
        replay_te(run_, te_of(*instances_[j]), {r.volumes}, &dp);
      }
    }
    op.gap_norm = median(gaps);
    run_.add("runner.busy_s", busy_s);
    run_.add("runner.capacity_s", kWorkers * report.wall_seconds);
    return op;
  }

 private:
  static constexpr int kWorkers = 2;

  /// Proven gaps: fig1 DP loses 2T up to T = 50 (Fig. 1: gap 100) and
  /// T + 50 beyond; FFD uses exactly one bin more than OPT.
  static double reference_gap(const runner::JobSpec& job) {
    if (job.heuristic != runner::Heuristic::Dp) return 1.0;
    return job.threshold <= 50.0 ? 2.0 * job.threshold : job.threshold + 50.0;
  }

  /// The InstanceConfig SweepRunner::execute_job builds for `job`.
  static heur::InstanceConfig instance_config(const runner::JobSpec& job) {
    heur::InstanceConfig config;
    config.heuristic = runner::to_string(job.heuristic);
    config.leader_ub = job.demand_ub;
    config.support = job.pairs;
    config.seed = job.seed;
    config.stream_seed = job.stream_seed;
    config.topology = job.topology;
    config.paths_per_pair = job.paths_per_pair;
    config.threshold = job.threshold;
    config.partitions = job.num_partitions;
    config.pop_instances = job.pop_instances;
    config.items = job.items;
    config.dims = job.dims;
    config.bins = job.bins;
    return config;
  }

  std::vector<runner::JobSpec> jobs_;
  std::vector<std::unique_ptr<heur::HeuristicInstance>> instances_;
  std::vector<std::unique_ptr<heur::GapOracle>> oracles_;
};

// ---- blackbox_b4: black-box probing of B4 DP, no B&B ----

/// The cycle is kSearches hill climbs and kSearches random searches,
/// alternating, at a fixed evaluation count (small demand deltas vs
/// independent vectors between direct solves), then kExplains greedy
/// certified explains of hill-climb witnesses built in set-up.
class BlackboxB4 final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    instance_ = make_te("dp", "b4");
    oracle_ = instance_->make_oracle();
    witnesses_.clear();
    for (int k = 0; k < kExplains; ++k) {
      search::SearchOptions options;
      options.max_evaluations = kWitnessEvaluations;
      options.time_limit_seconds = kSafetyCapSeconds;
      options.demand_ub = instance_->leader_ub();
      options.seed = util::derive_seed(run_.seed, 300 + k);
      witnesses_.push_back(search::hill_climb(*oracle_, options).best_volumes);
    }
  }

  int cycle_length() const override { return 2 * kSearches + kExplains; }
  const char* work_unit() const override {
    return "oracle evaluations or explain probes";
  }

  OpResult run_op(int index) override {
    if (index < 2 * kSearches) return run_search(index);
    return run_explain(index - 2 * kSearches);
  }

 private:
  static constexpr int kSearches = 10;
  static constexpr int kExplains = 4;
  static constexpr long kEvaluations = 200;
  static constexpr long kWitnessEvaluations = 10;
  static constexpr std::size_t kReplayPerOp = 4;

  /// Even indices hill-climb, odd ones search at random.
  OpResult run_search(int index) {
    const bool hill = index % 2 == 0;
    const char* name = hill ? "search.hill_climb" : "search.random_search";
    search::SearchOptions options;
    options.max_evaluations = kEvaluations;
    options.time_limit_seconds = kSafetyCapSeconds;
    options.demand_ub = instance_->leader_ub();
    options.seed = util::derive_seed(run_.seed, 200 + index);

    // Untraced phases call the oracle directly; the traced phase goes
    // through the timing decorator.
    const TimedOracle timed(*oracle_, kReplayPerOp);
    const heur::GapOracle& oracle =
        run_.traced ? static_cast<const heur::GapOracle&>(timed) : *oracle_;
    search::SearchResult r;
    OpResult op;
    double wall_s = 0.0;
    {
      const ScopedSpan span(run_.spans, name);
      const OpTimer timer;
      r = hill ? search::hill_climb(oracle, options)
               : search::random_search(oracle, options);
      wall_s = timer.add_to(op);
    }
    op.work = static_cast<double>(r.evaluations);
    op.gap_norm = r.best.gap() / instance_->gap_normalizer();
    op.signature = {static_cast<double>(r.evaluations),
                    static_cast<double>(r.restarts), r.best.gap()};
    run_.add("search.wall_s", wall_s);
    run_.add(std::string(name) + ".wall_s", wall_s);
    run_.add(std::string(name) + ".evaluations",
             static_cast<double>(r.evaluations));
    run_.add("te.evaluate_s", timed.busy_s());
    run_.add("te.evaluations", static_cast<double>(timed.evaluations()));
    if (!r.trace.empty()) {
      run_.add("search.time_to_best_s", r.trace.back().first);
      run_.add("search.searches", 1.0);
    }

    const ObsPaused paused;
    const std::string what = std::string(name) + " " + std::to_string(index);
    const double rescored = oracle_->evaluate(r.best_volumes).gap();
    const bool ok =
        run_.check(r.evaluations == kEvaluations,
                   what + " did " + std::to_string(r.evaluations) +
                       " evaluations of " + std::to_string(kEvaluations) +
                       " (the safety cap fired)") &&
        run_.check(same_gap(rescored, r.best.gap()),
                   what + " best gap " + std::to_string(r.best.gap()) +
                       " re-scores to " + std::to_string(rescored));
    run_.record(ok);
    if (run_.traced) replay_te(run_, te_of(*instance_), timed.recorded(), &dp_);
    return op;
  }

  OpResult run_explain(int k) {
    const std::vector<double>& witness = witnesses_[static_cast<std::size_t>(k)];
    explain::ExplainOptions options;
    options.strategy = "greedy";
    options.seed = util::derive_seed(run_.seed, 400 + k);
    options.probe.certify = true;
    options.source = "perfbench";

    explain::ExplainOutcome outcome;
    OpResult op;
    {
      const ScopedSpan span(run_.spans, "explain.witness");
      const OpTimer timer;
      outcome = explain::explain_witness(*instance_, witness, options);
      timer.add_to(op);
    }
    const explain::ExplainReport& rep = outcome.report;
    op.work = static_cast<double>(rep.probes);
    op.signature = {static_cast<double>(rep.probes),
                    static_cast<double>(rep.cache_hits), rep.core.gap};
    for (const int e : rep.core.core) op.signature.push_back(e);

    const ObsPaused paused;
    const std::string what = "explain " + std::to_string(k);
    const bool ok =
        run_.check(outcome.ok, what + ": " + outcome.error) &&
        run_.check(rep.core.minimal, what + " core is not 1-minimal") &&
        run_.check(rep.all_certified, what + " has uncertified probes");
    run_.record(ok);
    if (run_.traced && ok) replay_te(run_, te_of(*instance_), {witness}, &dp_);
    return op;
  }

  te::DpConfig dp_{.threshold = 50.0};
  std::unique_ptr<heur::HeuristicInstance> instance_;
  std::unique_ptr<heur::GapOracle> oracle_;
  std::vector<std::vector<double>> witnesses_;
};

// ---- the run ----

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool list_metrics = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = value.size();
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value, &used) != 0;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != value.size()) {
      throw std::invalid_argument("malformed value for " + flag + ": " + value);
    }
  }
  if (!args.list_metrics && args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Run& run) {
  if (name == "find_te") return std::make_unique<FindTe>(run);
  if (name == "prove_grid") return std::make_unique<ProveGrid>(run);
  if (name == "blackbox_b4") return std::make_unique<BlackboxB4>(run);
  throw std::invalid_argument("unknown workload " + name +
                              " (find_te, prove_grid, blackbox_b4)");
}

/// Adds 3 timed set-ups to `times`, in scaled CPU seconds. Each sample
/// repeats the set-up until it takes at least 20 ms, so that tiny
/// set-ups are still timed well above the clock's and the kernel's noise.
void time_setups(Workload& w, HostSpeed& host, std::vector<double>& times) {
  const double cpu0 = cpu_seconds();
  w.setup();
  const double once = cpu_seconds() - cpu0;
  const int batch = once >= kSetupSampleS
                        ? 1
                        : static_cast<int>(std::ceil(kSetupSampleS / std::max(once, 1e-7)));
  ScaledClock clock(host);
  for (int n = 0; n < 3; ++n) {
    const double start = cpu_seconds();
    for (int k = 0; k < batch; ++k) w.setup();
    times.push_back(clock.scale(cpu_seconds() - start) / batch);
  }
}

/// Timings of one phase, per operation of the cycle.
struct Phase {
  /// Scaled CPU time of every execution of each part of each operation.
  std::map<std::pair<int, int>, std::vector<double>> cpu_s;
  std::map<int, double> work;
  long ops = 0;
  double wall_s = 0.0;       ///< unscaled totals over every execution
  double total_cpu_s = 0.0;

  /// A part's scaled CPU time: the median of its repeats, leaving out its
  /// first (cold) execution whenever it ran again.
  [[nodiscard]] static double part_cpu(const std::vector<double>& v) {
    return v.size() > 1 ? median({v.begin() + 1, v.end()}) : v.front();
  }
  /// Scaled CPU seconds of one whole cycle.
  [[nodiscard]] double cycle_cpu() const {
    double total = 0.0;
    for (const auto& [key, v] : cpu_s) total += part_cpu(v);
    return total;
  }
  [[nodiscard]] static double total(const std::map<int, double>& m) {
    double t = 0.0;
    for (const auto& [key, v] : m) t += v;
    return t;
  }
  [[nodiscard]] static double total(const std::vector<double>& v) {
    double t = 0.0;
    for (const double x : v) t += x;
    return t;
  }
  /// op_cpu_s: CPU seconds per operation (per job for a campaign).
  [[nodiscard]] double op_cpu_s() const {
    return ratio(cycle_cpu(), static_cast<double>(cpu_s.size()));
  }
  /// work_per_cpu_s: work units per CPU second over the cycle.
  [[nodiscard]] double work_per_cpu_s() const {
    return ratio(total(work), cycle_cpu());
  }
};

/// Signatures and gaps of each operation's first execution.
struct FirstRuns {
  std::map<int, std::vector<double>> signatures;
  std::map<int, double> gaps;

  /// Mean normalized gap over the cycle's operations that have one:
  /// deterministic for a seed.
  [[nodiscard]] double gap_norm() const {
    return ratio(Phase::total(gaps), static_cast<double>(gaps.size()));
  }
};

void accumulate(obs::MetricsSnapshot& total, const obs::MetricsSnapshot& d) {
  for (const obs::MetricValue& m : d.metrics) {
    const auto it =
        std::find_if(total.metrics.begin(), total.metrics.end(),
                     [&](const obs::MetricValue& a) { return a.name == m.name; });
    if (it == total.metrics.end()) {
      total.metrics.push_back(m);
      continue;
    }
    it->value += m.value;
    it->hist.sum += m.hist.sum;
    it->hist.count += m.hist.count;
  }
}

/// Runs operations round the cycle until `seconds` have passed and at
/// least one whole cycle is done. With `obs_delta`, also sums the obs
/// metric deltas of every operation into it.
Phase run_phase(Workload& w, Run& run, FirstRuns& first, double seconds,
                obs::MetricsSnapshot* obs_delta) {
  Phase phase;
  ScaledClock clock(run.host);
  const util::Stopwatch watch;
  const int cycle = w.cycle_length();
  for (int n = 0; n < cycle || watch.seconds() < seconds; ++n) {
    const int index = n % cycle;
    run.spans.begin_op();
    const obs::MetricsSnapshot before =
        obs_delta != nullptr ? obs::snapshot() : obs::MetricsSnapshot{};
    OpResult op = w.run_op(index);
    if (obs_delta != nullptr) {
      accumulate(*obs_delta, obs::diff(before, obs::snapshot()));
    }

    const auto [it, is_first] = first.signatures.emplace(index, op.signature);
    if (is_first) {
      if (op.gap_norm) first.gaps[index] = *op.gap_norm;
    } else if (!run.check(it->second == op.signature,
                          "operation " + std::to_string(index) +
                              " did different work or gave a different "
                              "answer on a repeat")) {
      run.fail_recorded_unit();
    }
    // A workload that timed the parts of an operation itself (campaign
    // jobs on pool threads) gives their scaled times; otherwise the
    // operation is one part, scaled here.
    const double scaled = clock.scale(op.cpu_s);
    if (op.parts_s.empty()) op.parts_s = {scaled};
    for (std::size_t part = 0; part < op.parts_s.size(); ++part) {
      phase.cpu_s[{index, static_cast<int>(part)}].push_back(op.parts_s[part]);
    }
    phase.work[index] = op.work;
    ++phase.ops;
    phase.wall_s += op.wall_s;
    phase.total_cpu_s += op.cpu_s;
    std::printf("op %d: %.10g %s in %.6f s wall, %.6f s CPU (%.6f s scaled), "
                "gap_norm %.9g\n",
                index, op.work, w.work_unit(), op.wall_s, op.cpu_s,
                Phase::total(op.parts_s), op.gap_norm.value_or(NAN));
  }
  return phase;
}

/// Counter total, or histogram sum in seconds (the *_ns histograms), of
/// the traced operations.
double obs_total(const obs::MetricsSnapshot& d, const std::string& name) {
  const obs::MetricValue* m = d.find(name);
  if (m == nullptr) return 0.0;
  if (m->kind == obs::MetricKind::Histogram) {
    return static_cast<double>(m->hist.sum) * 1e-9;
  }
  return m->value;
}

std::map<std::string, double> per_layer_metrics(
    const obs::MetricsSnapshot& d, const Run& run, const Phase& untraced,
    const Phase& traced) {
  const double ops = static_cast<double>(traced.ops);
  const auto obs_op = [&](const char* name) { return obs_total(d, name) / ops; };
  const auto sum = [&](const char* key) {
    const auto it = run.sums.find(key);
    return it == run.sums.end() ? 0.0 : it->second;
  };
  const std::map<std::string, SpanLog::Totals> spans = run.spans.totals();
  const auto span_s = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };

  std::map<std::string, double> m;
  // core: bench spans around the finder calls, or the finds a campaign's
  // jobs ran.
  m["core.find_s"] = (span_s("core.find") + sum("core.find_s")) / ops;
  m["core.build_s"] = sum("core.build_s") / ops;
  m["core.time_to_best_s"] =
      ratio(sum("core.time_to_best_s"), sum("core.finds"));
  // mip
  m["mip.nodes"] = obs_op("bnb.nodes_explored");
  m["mip.node_s"] = obs_op("bnb.node_ns");
  m["mip.lp_solves"] = obs_op("bnb.lp_solves");
  m["mip.incumbent_updates"] = obs_op("bnb.incumbent_updates");
  m["mip.popped"] = obs_op("bnb.nodes_popped");
  m["mip.pruned"] =
      obs_op("bnb.nodes_pruned_bound") + obs_op("bnb.nodes_pruned_infeasible");
  m["mip.pruned_ratio"] = ratio(m["mip.pruned"], m["mip.popped"]);
  // Node time no span owns yet: simplex.solve_ns covers only tableau
  // solves. 0 where no B&B runs (the direct solves are not node time).
  m["mip.node_unowned_s"] =
      m["mip.node_s"] > 0.0
          ? m["mip.node_s"] - std::min(m["mip.node_s"], obs_op("simplex.solve_ns"))
          : 0.0;
  // lp
  m["lp.solves"] = obs_op("simplex.solves");
  m["lp.solve_s"] = obs_op("simplex.solve_ns");
  m["lp.pivots"] = obs_op("simplex.pivots");
  m["lp.degenerate_pivots"] = obs_op("simplex.degenerate_pivots");
  m["lp.degenerate_ratio"] = ratio(m["lp.degenerate_pivots"], m["lp.pivots"]);
  m["lp.revised_pivots"] =
      obs_op("simplex.revised_pivots") + obs_op("simplex.dual_pivots");
  m["lp.warm_solves"] = obs_op("simplex.warm_solves");
  m["lp.warm_fallbacks"] = obs_op("simplex.warm_fallbacks");
  m["lp.warm_fallback_ratio"] =
      ratio(m["lp.warm_fallbacks"], m["lp.warm_solves"]);
  m["lp.refactorizations"] = obs_op("simplex.refactorizations");
  m["lp.factor_cache_hits"] = obs_op("simplex.factor_cache_hits");
  m["lp.factor_cache_hit_ratio"] =
      ratio(m["lp.factor_cache_hits"], m["lp.warm_solves"]);
  m["lp.presolve_runs"] = obs_op("presolve.runs");
  m["lp.presolve_tightenings"] = obs_op("presolve.tightenings");
  // kkt
  m["kkt.emit_s"] = obs_op("kkt.emit_ns");
  m["kkt.complementarities"] = obs_op("kkt.complementarities");
  // te: the bench-side oracle decorator and the direct-solve replays
  m["te.evaluate_s"] = sum("te.evaluate_s") / ops;
  m["te.evaluations"] = sum("te.evaluations") / ops;
  m["te.max_flow_s"] = ratio(sum("te.max_flow_s"), sum("te.max_flow_calls"));
  m["te.dp_s"] = ratio(sum("te.dp_s"), sum("te.dp_calls"));
  // binpack
  m["binpack.opt_solves"] = obs_op("binpack.opt_solves");
  m["binpack.opt_s"] = obs_op("binpack.opt_ns");
  m["binpack.simulations"] = obs_op("binpack.ff_simulations");
  // search
  m["search.evaluations"] = obs_op("search.evaluations");
  m["search.improvements"] = obs_op("search.improvements");
  m["search.restarts"] = obs_op("search.restarts");
  m["search.overhead_s"] = (sum("search.wall_s") - sum("te.evaluate_s")) / ops;
  m["search.time_to_best_s"] =
      ratio(sum("search.time_to_best_s"), sum("search.searches"));
  // The two demand patterns' evaluation rates, which a direct-solve
  // change can move in opposite directions.
  m["search.hill_evals_per_s"] = ratio(sum("search.hill_climb.evaluations"),
                                       sum("search.hill_climb.wall_s"));
  m["search.random_evals_per_s"] = ratio(sum("search.random_search.evaluations"),
                                         sum("search.random_search.wall_s"));
  // explain
  m["explain.probes"] = obs_op("explain.probes");
  m["explain.probe_s"] = obs_op("explain.probe_ns");
  m["explain.probes_per_s"] = ratio(m["explain.probes"], m["explain.probe_s"]);
  m["explain.cache_hits"] = obs_op("explain.probe_cache_hits");
  m["explain.cache_hit_ratio"] = ratio(
      m["explain.cache_hits"], m["explain.probes"] + m["explain.cache_hits"]);
  // runner / sched
  m["runner.jobs"] = sum("runner.jobs") / ops;
  m["runner.job_s"] = ratio(sum("runner.job_s"), sum("runner.jobs"));
  m["runner.busy_s"] = sum("runner.busy_s") / ops;
  m["runner.capacity_s"] = sum("runner.capacity_s") / ops;
  m["runner.idle_frac"] =
      sum("runner.capacity_s") > 0.0
          ? 1.0 - ratio(sum("runner.busy_s"), sum("runner.capacity_s"))
          : 0.0;
  m["sched.steals"] = obs_op("sched.steals");
  m["sched.inline_joins"] = obs_op("sched.inline_joins");
  // tracing overhead: traced vs untraced op_cpu_s; and how much longer
  // the untraced operations took on the wall clock than on the CPU
  // (waiting, idle campaign workers, other tenants' load)
  m["trace.untraced_op_cpu_s"] = untraced.op_cpu_s();
  m["trace.traced_op_cpu_s"] = traced.op_cpu_s();
  m["trace.overhead_frac"] =
      ratio(m["trace.traced_op_cpu_s"], m["trace.untraced_op_cpu_s"]) - 1.0;
  m["trace.wall_per_cpu"] = ratio(untraced.wall_s, untraced.total_cpu_s);
  m["trace.spans"] = static_cast<double>(run.spans.size()) / ops;
  return m;
}

void print_ratio(const char* name, double num, double den) {
  std::printf("ratio %-26s = %.9g / %.9g = %.9g\n", name, num, den,
              ratio(num, den));
}

void print_ratios(std::map<std::string, double>& m) {
  print_ratio("mip.pruned_ratio", m["mip.pruned"], m["mip.popped"]);
  print_ratio("lp.degenerate_ratio", m["lp.degenerate_pivots"],
              m["lp.pivots"]);
  print_ratio("lp.warm_fallback_ratio", m["lp.warm_fallbacks"],
              m["lp.warm_solves"]);
  print_ratio("lp.factor_cache_hit_ratio", m["lp.factor_cache_hits"],
              m["lp.warm_solves"]);
  print_ratio("explain.cache_hit_ratio", m["explain.cache_hits"],
              m["explain.probes"] + m["explain.cache_hits"]);
  print_ratio("explain.probes_per_s", m["explain.probes"],
              m["explain.probe_s"]);
  print_ratio("runner busy share (1-idle)", m["runner.busy_s"],
              m["runner.capacity_s"]);
  print_ratio("traced / untraced op_cpu_s", m["trace.traced_op_cpu_s"],
              m["trace.untraced_op_cpu_s"]);
}

std::string json_result(const Run& run, const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += run.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    double v = values.at(defs[i].name);
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + std::string(defs[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int run_main(const Args& args) {
  if (args.list_metrics) {
    for (const MetricDef& d : kEndToEnd) {
      std::printf("end_to_end %s %s\n", d.name, d.unit);
    }
    for (const MetricDef& d : kPerLayer) {
      std::printf("per_layer %s %s\n", d.name, d.unit);
    }
    return 0;
  }
  domains::register_builtin();
  Run run;
  run.seed = args.seed;
  const std::unique_ptr<Workload> w = make_workload(args.workload, run);
  std::printf("workload %s, seed %llu, %d operations per cycle, work unit: "
              "%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), w->cycle_length(),
              w->work_unit());

  FirstRuns first;
  std::map<std::string, double> metrics;
  const std::vector<MetricDef>* defs = &kEndToEnd;
  if (!args.trace) {
    // Set-ups are timed before and after the operations, so one burst of
    // machine noise cannot move every sample.
    std::vector<double> setups;
    time_setups(*w, run.host, setups);
    const Phase phase = run_phase(*w, run, first, args.seconds, nullptr);
    time_setups(*w, run.host, setups);
    metrics["setup_s"] = median(setups);
    metrics["op_cpu_s"] = phase.op_cpu_s();
    metrics["work_per_cpu_s"] = phase.work_per_cpu_s();
    metrics["gap_norm"] = first.gap_norm();
    metrics["peak_rss_mb"] = peak_rss_mb();
    std::printf("%ld operations (%.6f s wall, %.6f s CPU), %zu set-ups, "
                "host kernel median %.6f s (reference %.6f s)\n",
                phase.ops, phase.wall_s, phase.total_cpu_s, setups.size(),
                run.host.median_reading(), HostSpeed::kReferenceS);
  } else {
    defs = &kPerLayer;
    w->setup();
    const Phase untraced =
        run_phase(*w, run, first, 0.5 * args.seconds, nullptr);
    obs::reset();
    obs::set_enabled(true);
    run.spans.set_enabled(true);
    run.traced = true;
    obs::MetricsSnapshot delta;
    const Phase traced =
        run_phase(*w, run, first, 0.5 * args.seconds, &delta);
    obs::set_enabled(false);
    run.spans.set_enabled(false);
    run.traced = false;
    metrics = per_layer_metrics(delta, run, untraced, traced);
    metrics["host.kernel_s"] = run.host.median_reading();
    std::printf("%ld untraced and %ld traced operations; per-layer values "
                "are per traced operation\n",
                untraced.ops, traced.ops);
    print_ratios(metrics);
    print_ratio("trace.wall_per_cpu", untraced.wall_s, untraced.total_cpu_s);
    for (const auto& [name, t] : run.spans.totals()) {
      std::printf("span %-22s count %6ld total %.6f s self %.6f s\n",
                  name.c_str(), t.count, t.total_s, t.self_s);
    }
    if (!args.spans_path.empty()) run.spans.write_jsonl(args.spans_path);
  }
  for (const MetricDef& d : *defs) {
    std::printf("metric %-26s %.9g %s\n", d.name, metrics[d.name], d.unit);
  }
  std::printf("failed_frac = %ld / %ld\n", run.failed, run.attempted);
  std::printf("%s\n", json_result(run, *defs, metrics).c_str());
  return run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace metaopt::perfbench

int main(int argc, char** argv) {
  try {
    return metaopt::perfbench::run_main(
        metaopt::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
