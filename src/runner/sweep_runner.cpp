#include "runner/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
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

namespace {

/// Appends `"key":value` to a JSON object under construction.
void field(std::string& out, const char* key, const std::string& value) {
  if (out.size() > 1) out += ",";
  out += "\"";
  out += key;
  out += "\":" + value;
}

/// The record up to (not including) `,"status":` — every JobSpec field,
/// so two records share it exactly when their jobs are equal field for
/// field (doubles print with "%.17g", which is injective).
std::string spec_prefix(const JobSpec& s) {
  std::string out = "{";
  field(out, "job", std::to_string(s.id));
  field(out, "topology", json_string(s.topology));
  field(out, "heuristic", json_string(to_string(s.heuristic)));
  field(out, "threshold", json_number(s.threshold));
  field(out, "partitions", std::to_string(s.num_partitions));
  field(out, "paths", std::to_string(s.paths_per_pair));
  field(out, "seed", std::to_string(s.seed));
  field(out, "stream_seed", std::to_string(s.stream_seed));
  field(out, "instances", std::to_string(s.pop_instances));
  field(out, "pairs", std::to_string(s.pairs));
  field(out, "items", std::to_string(s.items));
  field(out, "dims", std::to_string(s.dims));
  field(out, "bins", std::to_string(s.bins));
  field(out, "budget", json_number(s.budget_seconds));
  field(out, "demand_ub", json_number(s.demand_ub));
  field(out, "seed_search_fraction", json_number(s.seed_search_fraction));
  field(out, "deterministic", s.deterministic ? "true" : "false");
  field(out, "certify", s.certify ? "true" : "false");
  field(out, "mip_threads", std::to_string(s.mip_threads));
  return out;
}

JobStatus status_from_string(const std::string& s) {
  if (s == "ok") return JobStatus::Ok;
  if (s == "timeout") return JobStatus::Timeout;
  return JobStatus::Failed;
}

}  // namespace

std::string to_json(const JobResult& r) {
  const heur::GapFindResult& a = r.result;
  std::string out = spec_prefix(r.spec);
  field(out, "status", json_string(to_string(r.status)));
  field(out, "solve_status", json_string(lp::to_string(a.status)));
  field(out, "error", json_string(r.error));
  field(out, "gap", json_number(a.gap));
  field(out, "norm_gap", json_number(a.normalized_gap));
  field(out, "opt", json_number(a.opt_value));
  field(out, "heur", json_number(a.heur_value));
  field(out, "bound", json_number(a.bound));
  field(out, "certified", a.certified ? "true" : "false");
  field(out, "nodes", std::to_string(a.nodes));
  field(out, "vars", std::to_string(a.stats.num_vars));
  field(out, "rows", std::to_string(a.stats.num_constraints));
  field(out, "sos", std::to_string(a.stats.num_complementarities));
  field(out, "binaries", std::to_string(a.stats.num_binaries));
  field(out, "nonzeros", std::to_string(a.stats.num_nonzeros));
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
    field(out, "volumes", vols);
  }
  // Wall-time fields stay last so campaign diffs can strip them by
  // truncating at "solve_seconds". The optional metrics object rides in
  // that same strip-suffix zone (and is omitted when recording is off),
  // so the deterministic prefix is byte-identical either way.
  field(out, "solve_seconds", json_number(a.seconds));
  field(out, "wall_seconds", json_number(r.wall_seconds));
  if (!r.metrics.empty()) field(out, "metrics", r.metrics.to_json());
  out += "}";
  return out;
}

JobResult from_json(const std::string& record) {
  const util::JsonValue v = util::parse_json(record);
  const auto count = [&v](const char* key, int def) {
    return static_cast<int>(v.number_or(key, def));
  };
  const auto u64 = [&v](const char* key, std::uint64_t def) {
    const util::JsonValue* x = v.find(key);
    return x != nullptr ? x->as_uint64() : def;
  };
  const auto flag = [&v](const char* key, bool def) {
    const util::JsonValue* x = v.find(key);
    return x != nullptr ? x->as_bool() : def;
  };
  JobResult r;
  JobSpec& s = r.spec;
  s.id = count("job", s.id);
  s.topology = v.string_or("topology", s.topology);
  s.heuristic = heuristic_from_string(v.string_or("heuristic", "dp"));
  s.threshold = v.number_or("threshold", s.threshold);
  s.num_partitions = count("partitions", s.num_partitions);
  s.paths_per_pair = count("paths", s.paths_per_pair);
  s.seed = u64("seed", s.seed);
  s.stream_seed = u64("stream_seed", s.stream_seed);
  s.pop_instances = count("instances", s.pop_instances);
  s.pairs = count("pairs", s.pairs);
  s.items = count("items", s.items);
  s.dims = count("dims", s.dims);
  s.bins = count("bins", s.bins);
  s.budget_seconds = v.number_or("budget", s.budget_seconds);
  s.demand_ub = v.number_or("demand_ub", s.demand_ub);
  s.seed_search_fraction =
      v.number_or("seed_search_fraction", s.seed_search_fraction);
  s.deterministic = flag("deterministic", s.deterministic);
  s.certify = flag("certify", s.certify);
  s.mip_threads = count("mip_threads", s.mip_threads);

  r.status = status_from_string(v.string_or("status", "failed"));
  r.error = v.string_or("error", "");
  heur::GapFindResult& a = r.result;
  a.gap = v.number_or("gap", 0.0);
  a.normalized_gap = v.number_or("norm_gap", 0.0);
  a.opt_value = v.number_or("opt", 0.0);
  a.heur_value = v.number_or("heur", 0.0);
  a.bound = v.number_or("bound", 0.0);
  a.certified = flag("certified", false);
  a.nodes = static_cast<long>(v.number_or("nodes", 0.0));
  if (const util::JsonValue* vols = v.find("volumes"); vols != nullptr) {
    for (const util::JsonValue& x : vols->as_array()) {
      a.volumes.push_back(x.as_number());
    }
  }
  r.wall_seconds = v.number_or("wall_seconds", 0.0);
  r.serialized = record;
  return r;
}

heur::InstanceConfig instance_config(const JobSpec& job) {
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
  return config;
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
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(instance_config(job));

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

/// Replaces `path` with `text` through `path.tmp` + rename, so a kill
/// mid-write leaves the previous file intact, never a truncated one.
void replace_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + tmp);
  std::filesystem::rename(tmp, path);
}

/// Appends one record line; the file is closed again before returning,
/// so a killed campaign leaves every finished record on disk.
void append_record(const std::string& path, const std::string& record) {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << record << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Carries the records of `path` over into the slots of `mine` whose
/// job they belong to; returns the number carried over.
int load_resume(const std::string& path, const std::vector<JobSpec>& mine,
                std::vector<JobResult>& slots) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open resume JSONL " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::map<int, std::size_t> slot_of;
  for (std::size_t i = 0; i < mine.size(); ++i) slot_of[mine[i].id] = i;
  int carried = 0;
  // Only newline-terminated lines count: a final line without its
  // newline is a torn write, and its job simply runs again.
  std::size_t begin = 0;
  for (std::size_t end; (end = text.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    const std::string line = text.substr(begin, end - begin);
    if (line.empty()) continue;
    JobResult record;
    try {
      record = from_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("resume " + path + ": " + e.what());
    }
    const int id = record.spec.id;
    const std::string where = "resume " + path + ": job " + std::to_string(id);
    const auto it = slot_of.find(id);
    if (it == slot_of.end()) {
      throw std::runtime_error(where + " is not one of this shard's jobs");
    }
    JobResult& slot = slots[it->second];
    if (!slot.serialized.empty()) {
      throw std::runtime_error(where + " appears twice");
    }
    const std::string prefix = spec_prefix(mine[it->second]) + ",\"status\":";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      throw std::runtime_error(where +
                               " was written for a different spec than "
                               "this campaign's");
    }
    slot = std::move(record);
    ++carried;
  }
  return carried;
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
  // Shard after expansion: ids and derived stream seeds are fixed
  // before the filter, so merged shard output is byte-identical to an
  // unsharded run.
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
  if (!options_.resume_jsonl.empty()) {
    report.num_resumed = load_resume(options_.resume_jsonl, mine, report.jobs);
  }
  // Carried-over slots are final; only the rest are handed to the lanes.
  std::vector<std::size_t> to_run;
  to_run.reserve(mine.size());
  std::string carried;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (report.jobs[i].serialized.empty()) {
      to_run.push_back(i);
    } else {
      carried += report.jobs[i].serialized + "\n";
    }
  }
  const std::string& jsonl_path = options_.jsonl_path;
  if (!jsonl_path.empty()) replace_file(jsonl_path, carried);

  const int threads = options_.threads > 0 ? options_.threads
                                           : Scheduler::default_threads();
  report.threads = threads;

  std::mutex progress_mutex;
  int completed = 0;
  const int total = static_cast<int>(to_run.size());

  const auto run_job = [&](std::size_t i) {
    // Each job owns slot i outright; only the progress bookkeeping is
    // shared. A throw from the job body is contained here as a failed
    // slot — it never takes down the campaign.
    JobResult& slot = report.jobs[i];
    slot.spec = mine[i];
    util::Stopwatch watch;
    // Per-job metric attribution: the job body starts on this lane's
    // thread, but may fan out onto scheduler workers (multi-threaded
    // B&B adopts the spawner's shard group), so bracket the job with
    // group snapshots — the thread-only diff would under-report any
    // solver work done off this thread. The "metrics" field rides in
    // the JSONL strip-suffix zone, so the deterministic byte-prefix
    // is unchanged by this wider attribution.
    const bool measured = obs::enabled();
    const obs::ScopedShardGroup shard_group;
    const obs::MetricsSnapshot before =
        measured ? obs::snapshot_group() : obs::MetricsSnapshot();
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
    if (measured) slot.metrics = obs::diff(before, obs::snapshot_group());
    slot.serialized = to_json(slot);

    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    if (!jsonl_path.empty()) append_record(jsonl_path, slot.serialized);
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
  // slot; a throw from the bookkeeping (a JSONL append, the progress
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

  // Slots are already in expansion order (== sorted by job id); keep the
  // sort anyway so custom job lists with shuffled ids aggregate
  // deterministically too.
  std::sort(report.jobs.begin(), report.jobs.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.spec.id < b.spec.id;
            });
  if (!jsonl_path.empty()) replace_file(jsonl_path, report.jsonl());
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
