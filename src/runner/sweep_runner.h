// Parallel, deterministic executor for SweepSpec campaigns.
//
// Jobs are independent single-shot MetaOpt solves — embarrassingly
// parallel (the POP insight of Narayanan et al., SOSP '21, applied to
// our own harness) — so SweepRunner runs them on `threads` lanes of the
// shared work-stealing scheduler (Scheduler::fork_join), each lane
// taking the next job in submission order, with per-job fault
// isolation: a job that throws is recorded as `failed` (with the
// exception message), a job whose solver gave up without an incumbent
// is `timeout`, and neither ever takes down the campaign or poisons a
// sibling's slot. Only a failure of the campaign's own bookkeeping (a
// checkpoint write, the progress callback) stops it: run_jobs()
// rethrows it once the running jobs have finished.
//
// Determinism: each job writes into its own pre-allocated result slot,
// aggregation sorts by job id, every double is printed with a fixed
// "%.17g" format, and per-job randomness comes from the spec-derived
// stream seed — so the JSONL payload is byte-identical regardless of
// thread count or scheduling order, except for the wall-time fields
// (`solve_seconds`, `wall_seconds`), which are placed last in each
// record so they are trivial to strip when diffing campaigns.
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
  /// just the lane thread it started on). Empty when recording is off —
  /// and then omitted from the JSONL record, so the byte format is
  /// unchanged for existing campaigns.
  obs::MetricsSnapshot metrics;
  /// The job's JSONL record, exactly as written. Filled at completion;
  /// a job skipped on --resume carries the *prior run's* line verbatim,
  /// so resumed output is byte-identical without any float round-trip.
  std::string serialized;
};

struct SweepReport {
  std::vector<JobResult> jobs;  ///< sorted by spec.id
  int num_ok = 0;
  int num_timeout = 0;
  int num_failed = 0;
  /// Jobs skipped because a resume manifest recorded them as done
  /// (counted into the num_* buckets above by their recorded status).
  int num_resumed = 0;
  int threads = 1;
  double wall_seconds = 0.0;  ///< whole-campaign wall time

  /// One JSON record per job, newline-terminated, sorted by job id
  /// (resumed jobs contribute their prior run's bytes verbatim).
  [[nodiscard]] std::string jsonl() const;

  /// Writes jsonl() to `path` (parent directories created).
  void write_jsonl(const std::string& path) const;

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
/// newline). Wall-time fields come last.
std::string to_json(const JobResult& result);

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

  // ---- checkpointing / resume (restartable campaigns) ----
  /// Manifest path; empty disables checkpointing. Completed records are
  /// appended to `<checkpoint_path>.partial.jsonl` (completion order),
  /// and the manifest — spec fingerprint, shard coordinates, done job
  /// ids, partial path — is atomically rewritten (tmp + rename) every
  /// `checkpoint_every` completions and once at the end. The partial
  /// stream is flushed *before* each manifest write, so a manifest
  /// never lists a job whose bytes are not durably in the partial file.
  std::string checkpoint_path;
  int checkpoint_every = 1;
  /// Manifest to resume from. Jobs it records as done are not
  /// re-executed; their JSONL lines are carried over verbatim from the
  /// partial file. Throws if the manifest's fingerprint or shard
  /// coordinates do not match this campaign (resuming an edited spec
  /// would silently mix results). Checkpointing continues into
  /// `checkpoint_path` if set, else into the resumed manifest itself.
  std::string resume_manifest;
  /// Testing hook (simulated kill): stop launching jobs after this many
  /// completions (0 = run everything). Unexecuted jobs are reported
  /// Failed with a "stopped" error and never enter the checkpoint.
  int stop_after = 0;
};

class SweepRunner {
 public:
  using JobFn = std::function<heur::GapFindResult(const JobSpec&)>;

  explicit SweepRunner(SweepOptions options = {});

  /// Expands the spec and executes every job with the real solver stack.
  [[nodiscard]] SweepReport run(const SweepSpec& spec) const;

  /// Executes pre-expanded jobs through a custom job body (tests inject
  /// throwing/fake jobs here; run() uses execute_job). The shard filter
  /// and resume skipping apply to the given list; the fingerprint is
  /// taken over the full list, pre-filter.
  [[nodiscard]] SweepReport run_jobs(const std::vector<JobSpec>& jobs,
                                     const JobFn& fn) const;

  /// The default job body: builds the job's HeuristicInstance through
  /// the heur:: registry and runs its single-shot adversarial search.
  /// Stateless and thread-safe; throws on an unregistered heuristic
  /// (call domains::register_builtin() in the binary first) or unknown
  /// topology.
  static heur::GapFindResult execute_job(const JobSpec& job);

 private:
  SweepOptions options_;
};

}  // namespace metaopt::runner
