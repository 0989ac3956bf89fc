// Parallel, deterministic executor for SweepSpec campaigns.
//
// Jobs are independent single-shot MetaOpt solves — embarrassingly
// parallel (the POP insight of Narayanan et al., SOSP '21, applied to
// our own harness) — so SweepRunner runs them on `threads` lanes of the
// shared process-wide pool (one Scheduler::fork_join), each lane
// taking the next job in submission order, with per-job fault
// isolation: a job that throws is recorded as `failed` (with the
// exception message), a job whose solver gave up without an incumbent
// is `timeout`, and neither ever takes down the campaign or poisons a
// sibling's slot. Only a failure of the campaign's own bookkeeping (a
// JSONL append, the progress callback) stops it: run_jobs() rethrows it
// once the running jobs have finished.
//
// Determinism: each job writes into its own pre-allocated result slot,
// aggregation sorts by job id, every double is printed with a fixed
// "%.17g" format, and per-job randomness comes from the spec-derived
// stream seed — so the JSONL payload is byte-identical regardless of
// thread count or scheduling order, except for the wall-time fields
// (`solve_seconds`, `wall_seconds`), which are placed last in each
// record so they are trivial to strip when diffing campaigns.
//
// The JSONL record is the only serialized form of a job: its spec
// prefix (everything before `,"status":`) is a pure function of the
// JobSpec, from_json() reads a record back into the JobResult that
// wrote it, and the campaign's JSONL file doubles as its checkpoint
// (SweepOptions::jsonl_path / resume_jsonl).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "heur/instance.h"
#include "obs/metrics.h"
#include "runner/sweep_spec.h"

namespace metaopt::runner {

enum class JobStatus {
  Ok,       ///< solver returned a result (optimal or budget-bounded incumbent)
  Timeout,  ///< budget exhausted with no incumbent at all
  Failed,   ///< the job threw; see JobResult::error
};

const char* to_string(JobStatus status);

struct JobResult {
  JobSpec spec;
  JobStatus status = JobStatus::Failed;
  std::string error;                ///< exception message when Failed
  heur::GapFindResult result;       ///< valid unless Failed
  double wall_seconds = 0.0;        ///< job wall time on its lane
  /// Per-job obs metric deltas (shard-group diff around the job body:
  /// the group tag follows the job onto any scheduler workers it uses,
  /// e.g. a multi-threaded B&B, so the delta covers the whole job, not
  /// just the lane thread it started on). Taken only while recording is
  /// on; empty otherwise, and then omitted from the JSONL record.
  obs::MetricsSnapshot metrics;
  /// The job's JSONL record, exactly as written. Filled at completion
  /// and by from_json(); a job carried over on resume keeps the *prior
  /// run's* line verbatim, so resumed output is byte-identical without
  /// any float round-trip.
  std::string serialized;
};

struct SweepReport {
  std::vector<JobResult> jobs;  ///< sorted by spec.id
  int num_ok = 0;
  int num_timeout = 0;
  int num_failed = 0;
  /// Jobs carried over from SweepOptions::resume_jsonl (counted into
  /// the num_* buckets above by their recorded status).
  int num_resumed = 0;
  int threads = 1;
  double wall_seconds = 0.0;  ///< whole-campaign wall time

  /// One JSON record per job, newline-terminated, sorted by job id
  /// (resumed jobs contribute their prior run's bytes verbatim).
  [[nodiscard]] std::string jsonl() const;

  /// Appends `figure,series,x,y,extra` rows (the existing bench CSV
  /// shape): series = "<topology>/<heuristic>" for the TE families and
  /// "<heuristic>/d<dims>" for the bin-packing families (topology is
  /// meaningless for ffd/ff), x = the swept axis (threshold, partitions
  /// or items — axis_value()), y = normalized gap, extra = raw gap.
  /// Non-Ok jobs are skipped: a failed job's result is documented
  /// invalid and must not serialize garbage gaps into the figure data.
  void write_csv(const std::string& path, const std::string& figure) const;
};

/// Serializes one job result as a single-line JSON object (no trailing
/// newline): every JobSpec field first (the spec prefix), then
/// `"status"` and the result. Wall-time fields come last.
std::string to_json(const JobResult& result);

/// Reads one to_json() record back: every JobSpec field exactly (64-bit
/// seeds included), the result fields callers read (status, error, gap,
/// norm_gap, opt, heur, bound, certified, nodes, volumes, wall_seconds),
/// and `serialized` = `record`. Missing keys keep their defaults, unknown
/// keys are ignored. Throws std::runtime_error on malformed JSON and
/// std::invalid_argument on an unknown heuristic.
JobResult from_json(const std::string& record);

/// The heur::InstanceConfig a job runs under. SweepRunner::execute_job
/// and `metaopt explain --jsonl` both build their instance from it, so an
/// explain probe re-solves the exact instance the campaign saw (POP
/// instantiation seeds derive from the stream seed).
[[nodiscard]] heur::InstanceConfig instance_config(const JobSpec& job);

struct SweepOptions {
  /// Jobs in flight at once (lanes); <= 0 means hardware_concurrency().
  int threads = 0;
  /// Invoked after each job completes (from the lanes, serialized by
  /// the runner): (result, completed, total). A throw stops the campaign
  /// and is rethrown by run_jobs().
  std::function<void(const JobResult&, int, int)> on_progress;
  /// Log one Info line per completed job and a campaign summary.
  bool log_progress = true;

  // ---- sharding (multi-machine campaigns) ----
  /// This process runs the jobs with id % shard_count == shard_index.
  /// The partition happens *after* expansion, so job ids and derived
  /// stream seeds are identical across any shard count — which is what
  /// makes merged shard output byte-identical to an unsharded run.
  int shard_index = 0;
  int shard_count = 1;

  // ---- the JSONL file, which is also the checkpoint ----
  /// Where the records go; empty writes no file. At the start the
  /// carried-over records (possibly none) replace the file (tmp +
  /// rename); each finished record is then appended under the progress
  /// lock, before on_progress runs, and a failed append stops the
  /// campaign. When the campaign ends the file is rewritten sorted by
  /// job id (tmp + rename). A campaign stopped by an error leaves it in
  /// completion order, which resume_jsonl accepts.
  std::string jsonl_path;
  /// A previous run's JSONL, finished or killed. A record is carried
  /// over verbatim when its id is one of this shard's jobs and its spec
  /// prefix is byte-equal to that job's; any other record, or a job id
  /// seen twice, throws std::runtime_error naming the job. A final line
  /// without its newline is a torn write: it is skipped and its job
  /// re-runs.
  std::string resume_jsonl;
};

class SweepRunner {
 public:
  using JobFn = std::function<heur::GapFindResult(const JobSpec&)>;

  explicit SweepRunner(SweepOptions options = {});

  /// Expands the spec and executes every job with the real solver stack.
  [[nodiscard]] SweepReport run(const SweepSpec& spec) const;

  /// Executes pre-expanded jobs through a custom job body (tests inject
  /// throwing/fake jobs here; run() uses execute_job). The shard filter
  /// and resume skipping apply to the given list.
  [[nodiscard]] SweepReport run_jobs(const std::vector<JobSpec>& jobs,
                                     const JobFn& fn) const;

  /// The default job body: builds the job's HeuristicInstance with
  /// heur::make_instance(instance_config(job)) and runs its single-shot
  /// adversarial search.
  /// Stateless and thread-safe; throws on an unknown topology.
  static heur::GapFindResult execute_job(const JobSpec& job);

 private:
  SweepOptions options_;
};

}  // namespace metaopt::runner
