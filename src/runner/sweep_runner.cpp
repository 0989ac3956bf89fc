#include "runner/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "runner/scheduler.h"
#include "util/csv.h"
#include "util/jsonl.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace metaopt::runner {

using util::json_number;
using util::json_string;

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Timeout: return "timeout";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

std::string to_json(const JobResult& r) {
  const JobSpec& s = r.spec;
  const heur::GapFindResult& a = r.result;
  std::string out = "{";
  const auto field = [&out](const std::string& key, const std::string& value) {
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":" + value;
  };
  field("job", std::to_string(s.id));
  field("topology", json_string(s.topology));
  field("heuristic", json_string(to_string(s.heuristic)));
  field("threshold", json_number(s.threshold));
  field("partitions", std::to_string(s.num_partitions));
  field("paths", std::to_string(s.paths_per_pair));
  field("seed", std::to_string(s.seed));
  field("stream_seed", std::to_string(s.stream_seed));
  field("instances", std::to_string(s.pop_instances));
  field("pairs", std::to_string(s.pairs));
  field("items", std::to_string(s.items));
  field("dims", std::to_string(s.dims));
  field("bins", std::to_string(s.bins));
  field("budget", json_number(s.budget_seconds));
  field("status", json_string(to_string(r.status)));
  field("solve_status", json_string(lp::to_string(a.status)));
  field("error", json_string(r.error));
  field("gap", json_number(a.gap));
  field("norm_gap", json_number(a.normalized_gap));
  field("opt", json_number(a.opt_value));
  field("heur", json_number(a.heur_value));
  field("bound", json_number(a.bound));
  field("certified", a.certified ? "true" : "false");
  field("nodes", std::to_string(a.nodes));
  field("vars", std::to_string(a.stats.num_vars));
  field("rows", std::to_string(a.stats.num_constraints));
  field("sos", std::to_string(a.stats.num_complementarities));
  field("binaries", std::to_string(a.stats.num_binaries));
  field("nonzeros", std::to_string(a.stats.num_nonzeros));
  // The adversarial witness itself, so campaigns are explainable after
  // the fact (`metaopt explain --jsonl ...`) without re-running the
  // finder. Deterministic content: part of the byte-stable prefix.
  {
    std::string vols = "[";
    for (std::size_t k = 0; k < a.volumes.size(); ++k) {
      if (k > 0) vols += ",";
      vols += json_number(a.volumes[k]);
    }
    vols += "]";
    field("volumes", vols);
  }
  // Wall-time fields stay last so campaign diffs can strip them by
  // truncating at "solve_seconds". The optional metrics object rides in
  // that same strip-suffix zone (and is omitted when recording is off),
  // so the deterministic prefix is byte-identical either way.
  field("solve_seconds", json_number(a.seconds));
  field("wall_seconds", json_number(r.wall_seconds));
  if (!r.metrics.empty()) field("metrics", r.metrics.to_json());
  out += "}";
  return out;
}

std::string SweepReport::jsonl() const {
  std::string out;
  for (const JobResult& job : jobs) {
    // Prefer the captured record: for resumed jobs it is the prior
    // run's bytes verbatim (re-serializing a parsed record could drift).
    out += job.serialized.empty() ? to_json(job) : job.serialized;
    out += "\n";
  }
  return out;
}

void SweepReport::write_jsonl(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << jsonl();
}

void SweepReport::write_csv(const std::string& path,
                            const std::string& figure) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  util::CsvWriter out(path, "figure,series,x,y,extra");
  for (const JobResult& job : jobs) {
    // A non-Ok job's result is documented invalid ("valid unless
    // Failed") — emitting it would plot default-constructed gaps.
    if (job.status != JobStatus::Ok) continue;
    // Series naming is family-aware: topology is meaningless for the
    // bin-packing heuristics (they sweep the items axis), so they get
    // "<heuristic>/d<dims>" instead of "<topology>/<heuristic>".
    const std::string series =
        is_binpack(job.spec.heuristic)
            ? std::string(to_string(job.spec.heuristic)) + "/d" +
                  std::to_string(job.spec.dims)
            : job.spec.topology + "/" + to_string(job.spec.heuristic);
    out.row(figure, series, job.spec.axis_value(), job.result.normalized_gap,
            job.result.gap);
  }
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

heur::GapFindResult SweepRunner::execute_job(const JobSpec& job) {
  heur::InstanceConfig config;
  config.heuristic = to_string(job.heuristic);
  config.leader_ub = job.demand_ub;
  config.support = job.pairs;
  config.seed = job.seed;
  // Everything random inside the job (POP instantiation seeds) comes
  // off this spec-derived stream: identical for any rerun of the same
  // spec, decorrelated across jobs.
  config.stream_seed = job.stream_seed;
  config.topology = job.topology;
  config.paths_per_pair = job.paths_per_pair;
  config.threshold = job.threshold;
  config.partitions = job.num_partitions;
  config.pop_instances = job.pop_instances;
  config.items = job.items;
  config.dims = job.dims;
  config.bins = job.bins;
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(config);

  heur::FindOptions options;
  options.budget_seconds = job.budget_seconds;
  options.certify = job.certify;
  // B&B helpers come from the shared scheduler: a width-T sweep with
  // M mip threads runs on max(T, M) workers total, never T x M.
  options.mip_threads = job.mip_threads;
  // The black-box seeding pass is wall-clock budgeted, so its incumbents
  // (and through them the B&B node count) depend on machine load; a
  // deterministic job trades it away for byte-reproducibility.
  options.seed_search_seconds =
      job.deterministic ? 0.0 : job.seed_search_fraction * job.budget_seconds;
  return instance->find_gap(options);
}

SweepReport SweepRunner::run(const SweepSpec& spec) const {
  return run_jobs(expand_spec(spec), &SweepRunner::execute_job);
}

namespace {

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

JobStatus status_from_string(const std::string& s) {
  if (s == "ok") return JobStatus::Ok;
  if (s == "timeout") return JobStatus::Timeout;
  return JobStatus::Failed;
}

/// Checkpoint sink: append-ordered partial JSONL + atomically rewritten
/// manifest. All mutation happens under the runner's progress mutex.
struct Checkpoint {
  bool enabled = false;
  std::string manifest_path;
  std::string partial_path;
  std::ofstream partial;
  std::vector<int> done_ids;
  int since_write = 0;
};

void write_manifest(Checkpoint& ckpt, std::uint64_t fingerprint,
                    int shard_index, int shard_count, int total_jobs) {
  // Flush the partial stream first: the manifest must never list a job
  // whose record is not durably in the partial file.
  ckpt.partial.flush();
  std::vector<int> done = ckpt.done_ids;
  std::sort(done.begin(), done.end());
  std::string doc = "{\"version\":1";
  doc += ",\"fingerprint\":\"" + fingerprint_hex(fingerprint) + "\"";
  doc += ",\"shard_index\":" + std::to_string(shard_index);
  doc += ",\"shard_count\":" + std::to_string(shard_count);
  doc += ",\"total_jobs\":" + std::to_string(total_jobs);
  doc += ",\"partial_jsonl\":" + json_string(ckpt.partial_path);
  doc += ",\"done\":[";
  for (std::size_t k = 0; k < done.size(); ++k) {
    if (k > 0) doc += ",";
    doc += std::to_string(done[k]);
  }
  doc += "]}\n";
  // Atomic replace: a kill mid-write leaves the previous manifest
  // intact, never a truncated one.
  const std::string tmp = ckpt.manifest_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    out << doc;
  }
  std::filesystem::rename(tmp, ckpt.manifest_path);
}

/// What a resume manifest yields: the verbatim record line per done id.
struct ResumeState {
  std::map<int, std::string> lines;
  std::string partial_path;
};

ResumeState load_resume(const std::string& manifest_path,
                        std::uint64_t fingerprint, int shard_index,
                        int shard_count) {
  std::ifstream in(manifest_path);
  if (!in) {
    throw std::runtime_error("cannot open resume manifest " + manifest_path);
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const util::JsonValue doc = util::parse_json(text);
  if (doc.number_or("version", 0) != 1) {
    throw std::runtime_error("resume manifest " + manifest_path +
                             ": unsupported version");
  }
  if (doc.string_or("fingerprint", "") != fingerprint_hex(fingerprint)) {
    throw std::runtime_error(
        "resume manifest " + manifest_path +
        ": spec fingerprint mismatch — the campaign differs from the one "
        "that wrote this checkpoint");
  }
  if (static_cast<int>(doc.number_or("shard_index", -1)) != shard_index ||
      static_cast<int>(doc.number_or("shard_count", -1)) != shard_count) {
    throw std::runtime_error("resume manifest " + manifest_path +
                             ": shard coordinates mismatch");
  }
  ResumeState state;
  state.partial_path = doc.string_or("partial_jsonl", "");
  std::vector<int> done;
  if (const util::JsonValue* arr = doc.find("done");
      arr != nullptr && arr->is_array()) {
    done.reserve(arr->as_array().size());
    for (const util::JsonValue& v : arr->as_array()) {
      done.push_back(static_cast<int>(v.as_number()));
    }
  }
  if (done.empty()) return state;

  // The partial file is read raw, line by line: resumed records are
  // carried over verbatim, never re-serialized. A job can appear twice
  // (completed + appended, killed before the manifest caught up, rerun
  // after resume) — the last line wins. Only manifest-listed ids count:
  // the manifest is the authority on what completed durably.
  std::ifstream partial(state.partial_path);
  if (!partial) {
    throw std::runtime_error("resume manifest " + manifest_path +
                             ": cannot open partial JSONL " +
                             state.partial_path);
  }
  std::map<int, std::string> by_id;
  std::string line;
  while (std::getline(partial, line)) {
    if (line.empty()) continue;
    const util::JsonValue rec = util::parse_json(line);
    by_id[static_cast<int>(rec.number_or("job", -1))] = line;
  }
  for (const int id : done) {
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      throw std::runtime_error(
          "resume manifest " + manifest_path + ": job " + std::to_string(id) +
          " is marked done but has no record in " + state.partial_path);
    }
    state.lines.emplace(id, it->second);
  }
  return state;
}

}  // namespace

SweepReport SweepRunner::run_jobs(const std::vector<JobSpec>& jobs,
                                  const JobFn& fn) const {
  util::Stopwatch campaign_watch;
  if (options_.shard_count < 1 || options_.shard_index < 0 ||
      options_.shard_index >= options_.shard_count) {
    throw std::invalid_argument("sweep shard: index " +
                                std::to_string(options_.shard_index) +
                                " out of range for count " +
                                std::to_string(options_.shard_count));
  }
  // Fingerprint over the *full* expansion, then filter: ids and derived
  // stream seeds are fixed before sharding, so every shard agrees on
  // the fingerprint and merged output is byte-identical to unsharded.
  const std::uint64_t fingerprint = jobs_fingerprint(jobs);
  std::vector<JobSpec> mine;
  mine.reserve(jobs.size() / static_cast<std::size_t>(options_.shard_count) +
               1);
  for (const JobSpec& job : jobs) {
    if (job.id % options_.shard_count == options_.shard_index) {
      mine.push_back(job);
    }
  }

  SweepReport report;
  report.jobs.resize(mine.size());

  ResumeState resume;
  if (!options_.resume_manifest.empty()) {
    resume = load_resume(options_.resume_manifest, fingerprint,
                         options_.shard_index, options_.shard_count);
  }

  Checkpoint ckpt;
  ckpt.manifest_path = options_.checkpoint_path.empty()
                           ? options_.resume_manifest
                           : options_.checkpoint_path;
  ckpt.enabled = !ckpt.manifest_path.empty();
  if (ckpt.enabled) {
    ckpt.partial_path = ckpt.manifest_path + ".partial.jsonl";
    const std::filesystem::path p(ckpt.manifest_path);
    if (p.has_parent_path()) {
      std::filesystem::create_directories(p.parent_path());
    }
    if (ckpt.partial_path == resume.partial_path) {
      // Continuing the checkpoint we resumed from: keep its records.
      ckpt.partial.open(ckpt.partial_path, std::ios::app);
    } else {
      // Fresh checkpoint (or a new path): start clean and seed it with
      // whatever we resumed, so *this* manifest is self-contained.
      ckpt.partial.open(ckpt.partial_path, std::ios::trunc);
      for (const auto& [id, line] : resume.lines) {
        ckpt.partial << line << '\n';
      }
    }
    if (!ckpt.partial) {
      throw std::runtime_error("cannot open " + ckpt.partial_path);
    }
  }

  // Pre-fill resumed slots; only the rest are handed to the lanes.
  std::vector<std::size_t> to_run;
  to_run.reserve(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto it = resume.lines.find(mine[i].id);
    if (it == resume.lines.end()) {
      to_run.push_back(i);
      continue;
    }
    JobResult& slot = report.jobs[i];
    slot.spec = mine[i];
    slot.serialized = it->second;
    // Recover the aggregate-relevant fields from the record; the bytes
    // themselves are already final.
    const util::JsonValue rec = util::parse_json(it->second);
    slot.status = status_from_string(rec.string_or("status", "failed"));
    slot.error = rec.string_or("error", "");
    slot.result.gap = rec.number_or("gap", 0.0);
    slot.result.normalized_gap = rec.number_or("norm_gap", 0.0);
    slot.wall_seconds = rec.number_or("wall_seconds", 0.0);
    ckpt.done_ids.push_back(mine[i].id);
    ++report.num_resumed;
  }

  const int threads = options_.threads > 0 ? options_.threads
                                           : Scheduler::default_threads();
  report.threads = threads;

  std::mutex progress_mutex;
  std::atomic<bool> stopped{false};
  int completed = 0;
  const int total = static_cast<int>(to_run.size());

  const auto run_job = [&](std::size_t i) {
    // Each job owns slot i outright; only the progress bookkeeping is
    // shared. A throw from the job body is contained here as a failed
    // slot — it never takes down the campaign.
    JobResult& slot = report.jobs[i];
    slot.spec = mine[i];
    if (stopped.load(std::memory_order_relaxed)) {
      // Simulated kill (stop_after): record the skip, keep it out of
      // the checkpoint so a resume re-executes it.
      slot.status = JobStatus::Failed;
      slot.error = "not executed: campaign stopped (stop_after)";
      return;
    }
    util::Stopwatch watch;
    // Per-job metric attribution: the job body starts on this lane's
    // thread, but may fan out onto scheduler workers (multi-threaded
    // B&B adopts the spawner's shard group), so bracket the job with
    // group snapshots — the thread-only diff would under-report any
    // solver work done off this thread. The "metrics" field rides in
    // the JSONL strip-suffix zone, so the deterministic byte-prefix
    // is unchanged by this wider attribution.
    const obs::ScopedShardGroup shard_group;
    const obs::MetricsSnapshot before = obs::snapshot_group();
    try {
      MO_SPAN("sweep.job");
      slot.result = fn(mine[i]);
      // The B&B reports TimeLimit even when it carries a budget-bounded
      // incumbent; only an *incumbent-less* budget exhaustion is a
      // timeout — everything with a genuine adversarial input is ok.
      if (slot.result.status == lp::SolveStatus::Error) {
        slot.status = JobStatus::Failed;
        slot.error = "solver error";
      } else if (slot.result.status == lp::SolveStatus::TimeLimit &&
                 !slot.result.has_solution()) {
        slot.status = JobStatus::Timeout;
      } else {
        slot.status = JobStatus::Ok;
      }
    } catch (const std::exception& e) {
      slot.status = JobStatus::Failed;
      slot.error = e.what();
    } catch (...) {
      slot.status = JobStatus::Failed;
      slot.error = "unknown exception";
    }
    slot.wall_seconds = watch.seconds();
    slot.metrics = obs::diff(before, obs::snapshot_group());
    slot.serialized = to_json(slot);

    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    if (ckpt.enabled) {
      ckpt.partial << slot.serialized << '\n';
      ckpt.done_ids.push_back(slot.spec.id);
      if (++ckpt.since_write >= std::max(1, options_.checkpoint_every)) {
        write_manifest(ckpt, fingerprint, options_.shard_index,
                       options_.shard_count, static_cast<int>(mine.size()));
        ckpt.since_write = 0;
      }
    }
    if (options_.stop_after > 0 && completed >= options_.stop_after) {
      stopped.store(true, std::memory_order_relaxed);
    }
    if (options_.log_progress) {
      MO_LOG(Info) << "[sweep] " << completed << "/" << total << " job "
                   << slot.spec.id << " (" << to_string(slot.spec.heuristic)
                   << " " << slot.spec.topology << " x="
                   << slot.spec.axis_value() << ") " << to_string(slot.status)
                   << " gap=" << slot.result.gap << " in " << slot.wall_seconds
                   << "s";
    }
    if (options_.on_progress) options_.on_progress(slot, completed, total);
  };

  // `threads` lanes share one job counter, so at most `threads` jobs are
  // in flight (however wide mip-threads grew the shared pool) and jobs
  // start in submission order. A job's own throw is contained in its
  // slot; a throw from the bookkeeping (a checkpoint write, the progress
  // callback) stops every lane from taking more jobs and is rethrown
  // here once they have all returned.
  std::atomic<std::size_t> next_job{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr abort_error;  // guarded by progress_mutex
  Scheduler::global().fork_join(threads, [&](int) {
    while (!aborted.load(std::memory_order_relaxed)) {
      const std::size_t k = next_job.fetch_add(1);
      if (k >= to_run.size()) return;
      try {
        run_job(to_run[k]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        if (!abort_error) abort_error = std::current_exception();
        aborted.store(true, std::memory_order_relaxed);
      }
    }
  });
  if (abort_error) std::rethrow_exception(abort_error);
  if (ckpt.enabled) {
    write_manifest(ckpt, fingerprint, options_.shard_index,
                   options_.shard_count, static_cast<int>(mine.size()));
  }

  // Slots are already in expansion order (== sorted by job id); keep the
  // sort anyway so custom job lists with shuffled ids aggregate
  // deterministically too.
  std::sort(report.jobs.begin(), report.jobs.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.spec.id < b.spec.id;
            });
  for (const JobResult& job : report.jobs) {
    switch (job.status) {
      case JobStatus::Ok: ++report.num_ok; break;
      case JobStatus::Timeout: ++report.num_timeout; break;
      case JobStatus::Failed: ++report.num_failed; break;
    }
  }
  report.wall_seconds = campaign_watch.seconds();
  if (options_.log_progress) {
    MO_LOG(Info) << "[sweep] campaign done: " << report.num_ok << " ok, "
                 << report.num_timeout << " timeout, " << report.num_failed
                 << " failed"
                 << (report.num_resumed > 0
                         ? " (" + std::to_string(report.num_resumed) +
                               " resumed)"
                         : "")
                 << " on " << report.threads << " threads in "
                 << report.wall_seconds << "s";
  }
  return report;
}

}  // namespace metaopt::runner
