// metaopt — command-line front end.
//
//   metaopt topo <name|file>                       topology summary
//   metaopt find <heuristic> [flags]               white-box adversarial search
//   metaopt bound dp|pop [flags]                   primal-dual upper bound
//   metaopt search hill|anneal|random|quant <heuristic>
//                                                  black-box baselines
//   metaopt sweep key=value... [flags]             parallel scenario sweep
//   metaopt merge-shards --out F shard...          recombine shard JSONL
//   metaopt explain <heuristic> [flags]            minimal adversarial core
//   metaopt help | --help                          subcommand overview
//
// Each subcommand declares its flags in the tables below, next to a
// global table (--metrics, --trace, --trace-jsonl, --log, --help);
// `metaopt <cmd> --help` prints them. The sweep's key=value grammar is
// documented at runner::parse_sweep_spec.
//
// Exit codes: 0 = ok; 1 = error (sweep: a job failed); 2 = usage (unknown
// command, flag or heuristic; missing or malformed value); 3 = nothing
// found (sweep: every job timed out empty-handed; explain: no
// gap-inducing witness, or its core falls below --min-gap).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "domains/domains.h"
#include "domains/te_instances.h"
#include "explain/cluster.h"
#include "explain/explain.h"
#include "heur/instance.h"
#include "net/paths.h"
#include "obs/obs.h"
#include "runner/jsonl_io.h"
#include "runner/sweep_runner.h"
#include "search/search.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace metaopt;

namespace {

// ---- flag tables ----

/// Number takes a finite real; Seconds a finite real > 0 (budgets);
/// Integer a count >= 0; Positive a count >= 1 (thread counts, sizes).
enum class Kind { Switch, Number, Seconds, Integer, Positive, String };
using enum Kind;

struct Flag {
  const char* name;
  Kind kind;
  const char* fallback;  ///< value when the flag is absent ("" = none)
  const char* help;
};

using FlagTable = std::span<const Flag>;

constexpr Flag kGlobalFlags[] = {
    {"metrics", Switch, "", "print the final metrics snapshot as JSON"},
    {"trace", String, "", "write a Chrome-trace/Perfetto JSON of all spans"},
    {"trace-jsonl", String, "", "write the trace events as JSON lines"},
    {"log", String, "warn", "trace|debug|info|warn|error|off"},
    {"help", Switch, "", "list a subcommand's flags"},
};

constexpr Flag kInstanceFlags[] = {
    {"heuristic", String, "", "registry name (or positional)"},
    {"topology", String, "b4",
     "b4|abilene|swan|fig1|circulant:n:k|file.topo"},
    {"paths", Positive, "2", "paths per pair"},
    {"threshold", Number, "50", "DP pinning threshold"},
    {"partitions", Positive, "2", "POP partitions"},
    {"instances", Positive, "3", "POP instantiations, seeds seed.."},
    {"pairs", Integer, "0", "adversarial support ~N pairs; 0 = all"},
    {"demand-ub", Number, "0", "leader box bound; 0 = domain max"},
    {"items", Positive, "6", "bin packing: items"},
    {"dims", Positive, "1", "bin packing: dimensions"},
    {"bins", Integer, "0", "bin packing: bin budget; 0 = one per item"},
    {"seed", Integer, "1", "RNG seed"},
};

constexpr Flag kRunFlags[] = {
    {"budget", Seconds, "30", "wall budget, seconds"},
    {"csv", String, "", "append a result row to this file"},
};

constexpr Flag kSolveFlags[] = {
    {"mip-threads", Positive, "1", "B&B threads (answers do not change)"},
    {"certify", Switch, "", "independently certify every solve"},
};

constexpr Flag kExplainFlags[] = {
    {"mip-threads", Positive, "1", "B&B threads of the witness find"},
    {"jsonl", String, "", "take the witness from this sweep file"},
    {"job", Integer, "", "campaign job (default: worst region's)"},
    {"min-gap", Number, "-1", "core keeps >= P% gap; -1 = 95% of own"},
    {"probe-budget", Seconds, "10", "seconds per embedded OPT solve"},
    {"bench-out", String, "", "also write a BENCH json report"},
};

constexpr Flag kSweepFlags[] = {
    {"threads", Integer, "0", "jobs at once; 0 = all hardware"},
    {"spec", String, "", "read key=value tokens from this file first; "
                         "later tokens win"},
    {"jsonl", String, "", "write one JSON record per job as it finishes"},
    {"csv", String, "", "write one CSV row per finished job"},
    {"quiet", Switch, "", "suppress per-job progress lines"},
    {"shard", String, "", "i/N: run only jobs with id % N == i"},
    {"resume", String, "", "carry over the jobs this sweep JSONL holds"},
};

constexpr Flag kMergeFlags[] = {
    {"out", String, "", "merged JSONL output file"},
};

constexpr Flag kTopoFlags[] = {
    {"topology", String, "b4",
     "b4|abilene|swan|fig1|circulant:n:k|file.topo"},
};

struct Command;

/// A parsed command line. `values` holds every flag the subcommand and
/// the global table declare, given or fallback, checked against its kind.
struct Cli {
  const Command* command = nullptr;
  std::vector<std::string> positional;
  std::map<std::string, std::string> values;

  const std::string& str(const char* name) const { return values.at(name); }
  bool on(const char* name) const { return !str(name).empty(); }
  double number(const char* name) const {
    return util::parse_double(str(name)).value();
  }
  std::uint64_t u64(const char* name) const {
    return util::parse_uint(str(name)).value();
  }
  int integer(const char* name) const {
    if (u64(name) > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(std::string("--") + name + " is too large");
    }
    return static_cast<int>(u64(name));
  }
};

struct Command {
  const char* name;
  const char* args;  ///< positional arguments, for usage lines
  const char* summary;
  std::vector<FlagTable> tables;
  int max_positional;  ///< -1 = unlimited
  int (*run)(const Cli&);
};

std::invalid_argument usage_error(const Cli& cli) {
  return std::invalid_argument(std::string("usage: metaopt ") +
                               cli.command->name + " " + cli.command->args +
                               " [flags]");
}

// ---- subcommands ----

void maybe_csv(const Cli& cli, const std::string& kind,
               const std::string& heuristic, double gap, double norm_gap,
               double seconds) {
  if (!cli.on("csv")) return;
  util::CsvWriter out(cli.str("csv"), "kind,heuristic,gap,norm_gap,seconds");
  out.row(kind, heuristic, gap, norm_gap, seconds);
}

int cmd_topo(const Cli& cli) {
  const net::Topology topo = domains::load_topology(
      cli.positional.empty() ? cli.str("topology") : cli.positional[0]);
  std::printf("name:             %s\n", topo.name().c_str());
  std::printf("nodes:            %d\n", topo.num_nodes());
  std::printf("directed edges:   %d\n", topo.num_edges());
  std::printf("total capacity:   %.1f\n", topo.total_capacity());
  std::printf("avg shortest path %.3f\n",
              net::average_shortest_path_length(topo));
  return 0;
}

/// The heuristic name: `--heuristic NAME` wins, else the positional
/// argument at `slot`; empty when neither is present.
std::string heuristic_arg(const Cli& cli, std::size_t slot) {
  if (cli.on("heuristic")) return cli.str("heuristic");
  return cli.positional.size() > slot ? cli.positional[slot] : "";
}

/// Fills the registry config from the instance flags, for the heuristic
/// named by heuristic_arg(cli, slot). Domains ignore the knobs that are
/// not theirs.
heur::InstanceConfig instance_config(const Cli& cli, std::size_t slot) {
  heur::InstanceConfig config;
  config.heuristic = heuristic_arg(cli, slot);
  if (config.heuristic.empty()) throw usage_error(cli);
  config.leader_ub = cli.number("demand-ub");
  config.support = cli.integer("pairs");
  config.seed = cli.u64("seed");
  config.stream_seed = config.seed;
  config.topology = cli.str("topology");
  config.paths_per_pair = cli.integer("paths");
  config.threshold = cli.number("threshold");
  config.partitions = cli.integer("partitions");
  config.pop_instances = cli.integer("instances");
  // Long-standing CLI behaviour: POP instantiation seeds are
  // seed, seed+1, ... (not the splitmix stream the sweep runner uses).
  for (int i = 0; i < config.pop_instances; ++i) {
    config.pop_seeds.push_back(config.seed + static_cast<std::uint64_t>(i));
  }
  config.items = cli.integer("items");
  config.dims = cli.integer("dims");
  config.bins = cli.integer("bins");
  return config;
}

int cmd_find(const Cli& cli) {
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(instance_config(cli, 0));

  heur::FindOptions options;
  options.budget_seconds = cli.number("budget");
  options.mip_threads = cli.integer("mip-threads");
  options.certify = cli.on("certify");
  options.seed_search_seconds = options.budget_seconds * 0.3;

  const heur::GapFindResult result = instance->find_gap(options);

  std::printf("status:      %s\n", lp::to_string(result.status));
  std::printf("gap:         %.3f (%.2f%% normalized)\n", result.gap,
              100.0 * result.normalized_gap);
  std::printf("opt / heur:  %.3f / %.3f\n", result.opt_value,
              result.heur_value);
  std::printf("bound:       %s\n",
              std::isfinite(result.bound)
                  ? util::format_double(result.bound).c_str()
                  : "open");
  std::printf("nodes:       %ld in %.1fs\n", result.nodes, result.seconds);
  if (options.certify) {
    std::printf("certified:   %s\n", result.certified ? "yes" : "NO");
  }
  std::printf("model:       %d vars, %d rows, %d SOS, %d binaries\n",
              result.stats.num_vars, result.stats.num_constraints,
              result.stats.num_complementarities, result.stats.num_binaries);
  int shown = 0;
  for (std::size_t k = 0; k < result.volumes.size() && shown < 15; ++k) {
    if (result.volumes[k] > 1e-6) {
      std::printf("  %s = %.3f\n",
                  instance->leader_var_name(static_cast<int>(k)).c_str(),
                  result.volumes[k]);
      ++shown;
    }
  }
  maybe_csv(cli, "find", instance->name(), result.gap, result.normalized_gap,
            result.seconds);
  return 0;
}

int cmd_bound(const Cli& cli) {
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(instance_config(cli, 0));
  heur::FindOptions options;
  options.budget_seconds = cli.number("budget");
  options.mip_threads = cli.integer("mip-threads");
  options.certify = cli.on("certify");
  const heur::GapBoundResult result = instance->bound_gap(options);
  std::printf("status:       %s\n", lp::to_string(result.status));
  std::printf("upper bound:  %.3f (%.2f%% of total capacity)\n",
              result.upper_bound, 100.0 * result.normalized_upper_bound);
  std::printf("solve time:   %.2fs (model: %d vars, %d rows, 0 SOS)\n",
              result.seconds, result.stats.num_vars,
              result.stats.num_constraints);
  if (cli.on("certify")) {
    std::printf("certified:    %s\n", result.certified ? "yes" : "NO");
  }
  maybe_csv(cli, "bound", instance->name(), result.upper_bound,
            result.normalized_upper_bound, result.seconds);
  return 0;
}

int cmd_search(const Cli& cli) {
  const std::unique_ptr<heur::HeuristicInstance> instance =
      heur::make_instance(instance_config(cli, 1));
  if (cli.positional.empty()) throw usage_error(cli);
  const std::string& method = cli.positional[0];
  const std::unique_ptr<heur::GapOracle> oracle = instance->make_oracle();

  search::SearchOptions options;
  options.time_limit_seconds = cli.number("budget");
  options.demand_ub = instance->leader_ub();
  options.seed = cli.u64("seed");
  options.levels = instance->quantize_levels();

  search::SearchResult r;
  if (method == "hill") r = search::hill_climb(*oracle, options);
  else if (method == "anneal") r = search::simulated_annealing(*oracle, options);
  else if (method == "random") r = search::random_search(*oracle, options);
  else if (method == "quant") r = search::quantized_climb(*oracle, options);
  else throw std::invalid_argument("unknown method '" + method + "'");
  const double normalizer = instance->gap_normalizer();
  std::printf("best gap:    %.3f (%.2f%% normalized)\n", r.best.gap(),
              100.0 * r.best.gap() / normalizer);
  std::printf("evaluations: %ld in %.1fs (%ld restarts)\n", r.evaluations,
              r.seconds, r.restarts);
  maybe_csv(cli, "search." + method, instance->name(), r.best.gap(),
            r.best.gap() / normalizer, r.seconds);
  return 0;
}

int cmd_sweep(const Cli& cli) {
  // Spec tokens: the contents of --spec FILE (# starts a comment), then
  // the positional key=value arguments.
  std::vector<std::string> tokens;
  if (cli.on("spec")) {
    std::ifstream in(cli.str("spec"));
    if (!in) throw std::invalid_argument("cannot open " + cli.str("spec"));
    for (std::string line; std::getline(in, line);) {
      std::istringstream words(line.substr(0, line.find('#')));
      for (std::string word; words >> word;) tokens.push_back(word);
    }
  }
  tokens.insert(tokens.end(), cli.positional.begin(), cli.positional.end());
  if (tokens.empty()) throw usage_error(cli);

  const runner::SweepSpec spec = runner::parse_sweep_spec(tokens);
  runner::SweepOptions options;
  options.threads = cli.integer("threads");
  options.log_progress = false;
  // --shard i/N: run only the jobs with id % N == i (partitioned after
  // expansion, so shard output merges byte-identically).
  if (const std::string& shard = cli.str("shard"); !shard.empty()) {
    const std::vector<std::string> parts = util::split(shard, '/');
    const auto index = util::parse_uint(parts.front());
    const auto count = util::parse_uint(parts.back());
    if (parts.size() != 2 || !index || !count || *index >= *count ||
        *count > std::numeric_limits<int>::max()) {
      throw std::invalid_argument("--shard wants i/N with i < N, not " + shard);
    }
    options.shard_index = static_cast<int>(*index);
    options.shard_count = static_cast<int>(*count);
  }
  options.jsonl_path = cli.str("jsonl");
  options.resume_jsonl = cli.str("resume");
  if (!cli.on("quiet")) {
    options.on_progress = [](const runner::JobResult& job, int done,
                             int total) {
      std::fprintf(stderr,
                   "[%3d/%3d] job %-3d %-3s %-8s x=%-6s %-7s gap=%-10.3f "
                   "(%.1fs)\n",
                   done, total, job.spec.id,
                   runner::to_string(job.spec.heuristic),
                   runner::is_binpack(job.spec.heuristic)
                       ? "-"
                       : job.spec.topology.c_str(),
                   util::format_double(job.spec.axis_value()).c_str(),
                   runner::to_string(job.status), job.result.gap,
                   job.wall_seconds);
    };
  }

  const runner::SweepReport report = runner::SweepRunner(options).run(spec);

  std::printf("jobs:      %zu (%d ok, %d timeout, %d failed",
              report.jobs.size(), report.num_ok, report.num_timeout,
              report.num_failed);
  if (report.num_resumed > 0) std::printf(", %d resumed", report.num_resumed);
  std::printf(")\n");
  if (options.shard_count > 1) {
    std::printf("shard:     %d/%d\n", options.shard_index,
                options.shard_count);
  }
  std::printf("threads:   %d\n", report.threads);
  std::printf("wall:      %.2fs\n", report.wall_seconds);
  const runner::JobResult* worst = nullptr;
  for (const runner::JobResult& job : report.jobs) {
    if (job.status == runner::JobStatus::Ok &&
        job.result.normalized_gap >=
            (worst ? worst->result.normalized_gap : 0.0)) {
      worst = &job;
    }
  }
  if (worst != nullptr) {
    const bool binpack = runner::is_binpack(worst->spec.heuristic);
    const std::string where = binpack
                                  ? "d=" + std::to_string(worst->spec.dims)
                                  : worst->spec.topology;
    std::printf("worst gap: %.3f (%.2f%% of %s) at %s %s x=%s\n",
                worst->result.gap, 100.0 * worst->result.normalized_gap,
                binpack ? "bin budget" : "capacity",
                runner::to_string(worst->spec.heuristic), where.c_str(),
                util::format_double(worst->spec.axis_value()).c_str());
  }
  for (const runner::JobResult& job : report.jobs) {
    if (job.status == runner::JobStatus::Failed) {
      std::printf("job %d FAILED: %s\n", job.spec.id, job.error.c_str());
    }
  }

  if (cli.on("jsonl")) {
    std::printf("jsonl:     %s\n", cli.str("jsonl").c_str());
  }
  if (cli.on("csv")) {
    // The figure column names the spec file (fig4a.spec -> "fig4a").
    const std::string figure =
        cli.on("spec")
            ? std::filesystem::path(cli.str("spec")).stem().string()
            : "sweep";
    report.write_csv(cli.str("csv"), figure);
    std::printf("csv:       %s\n", cli.str("csv").c_str());
  }
  // 0 = at least one job produced a gap and none threw; 1 = some job
  // failed; 3 = nothing failed but no job finished ok either (every job
  // timed out with no incumbent), so the campaign was unproductive.
  if (report.num_failed > 0) return 1;
  return report.num_ok > 0 ? 0 : 3;
}

int cmd_merge_shards(const Cli& cli) {
  const std::string& out_path = cli.str("out");
  if (out_path.empty() || cli.positional.empty()) throw usage_error(cli);
  const std::string merged = runner::merge_shard_jsonl(cli.positional);
  std::ofstream out(out_path, std::ios::trunc);
  if (!(out << merged)) throw std::runtime_error("cannot write " + out_path);
  std::printf("merged %td records from %zu shards into %s\n",
              std::count(merged.begin(), merged.end(), '\n'),
              cli.positional.size(), out_path.c_str());
  return 0;
}

int cmd_explain(const Cli& cli) {
  const std::string& jsonl = cli.str("jsonl");
  const std::string heuristic = heuristic_arg(cli, 0);
  if (jsonl.empty() && heuristic.empty()) throw usage_error(cli);

  // --bench-out implies obs so probe counters land in the report.
  const std::string& bench_out = cli.str("bench-out");
  if (!bench_out.empty()) obs::set_enabled(true);
  const obs::MetricsSnapshot obs_baseline = obs::snapshot();

  explain::ExplainOptions options;
  options.min_gap_percent = cli.number("min-gap");
  options.seed = cli.u64("seed");
  options.probe.opt_budget_seconds = cli.number("probe-budget");

  std::unique_ptr<heur::HeuristicInstance> instance;
  std::vector<double> witness;
  std::vector<explain::Region> regions;

  if (!jsonl.empty()) {
    // Witness from a finished campaign: cluster it into adversarial
    // regions, then explain --job N or the worst region's representative.
    std::vector<runner::JobResult> records = runner::read_sweep_jsonl(jsonl);
    if (!heuristic.empty()) {
      std::erase_if(records, [&](const runner::JobResult& r) {
        return runner::to_string(r.spec.heuristic) != heuristic;
      });
    }
    regions = explain::cluster_regions(records, /*min_norm_gap=*/1e-9);
    const runner::JobResult* record = nullptr;
    if (cli.on("job")) {
      const int want = cli.integer("job");
      for (const runner::JobResult& r : records) {
        if (r.spec.id == want) record = &r;
      }
      if (record == nullptr) {
        throw std::invalid_argument("no job " + cli.str("job") + " in " +
                                    jsonl);
      }
      if (record->status != runner::JobStatus::Ok ||
          record->result.volumes.empty()) {
        std::fprintf(stderr,
                     "job %d has no witness (status %s; pre-witness "
                     "campaign files record none)\n",
                     want, runner::to_string(record->status));
        return 3;
      }
    } else {
      const int best = explain::best_region(regions);
      if (best < 0) {
        std::fprintf(stderr, "no gap-inducing job with a witness in %s\n",
                     jsonl.c_str());
        return 3;
      }
      record = &regions[static_cast<std::size_t>(best)].rep;
    }
    instance = heur::make_instance(runner::instance_config(record->spec));
    witness = record->result.volumes;
    options.source = jsonl + ":job=" + std::to_string(record->spec.id);
  } else {
    instance = heur::make_instance(instance_config(cli, 0));
    heur::FindOptions find;
    find.budget_seconds = cli.number("budget");
    find.mip_threads = cli.integer("mip-threads");
    find.certify = true;
    // No black-box seeding: keeps the witness (and hence the whole
    // explain run) machine-load independent.
    find.seed_search_seconds = 0.0;
    const heur::GapFindResult found = instance->find_gap(find);
    if (!found.has_solution() || found.gap <= 0.0) {
      std::fprintf(stderr, "find produced no gap witness (status %s)\n",
                   lp::to_string(found.status));
      return 3;
    }
    witness = found.volumes;
    options.source = "find";
  }

  explain::ExplainOutcome outcome =
      explain_witness(*instance, witness, options);
  outcome.report.regions = std::move(regions);
  std::fputs(explain::render_text(outcome.report).c_str(), stdout);
  if (!outcome.ok) {
    std::fprintf(stderr, "explain: %s\n", outcome.error.c_str());
  }

  if (!bench_out.empty()) {
    obs::BenchReport bench;
    bench.bench = "explain";
    bench.config = explain::bench_config(outcome.report);
    bench.wall_seconds = outcome.report.wall_seconds;
    bench.metrics = obs::diff(obs_baseline, obs::snapshot());
    for (const auto& [name, samples] :
         explain::bench_summaries(outcome.report)) {
      bench.add_summary(name, samples);
    }
    bench.write(bench_out);
    std::printf("bench:     %s\n", bench_out.c_str());
  }
  maybe_csv(cli, "explain", instance->name(), outcome.report.core.gap,
            instance->gap_normalizer() > 0.0
                ? outcome.report.core.gap / instance->gap_normalizer()
                : 0.0,
            outcome.report.wall_seconds);
  return outcome.ok ? 0 : 3;
}

const std::vector<Command> kCommands = {
    {"topo", "<name|file>", "topology summary", {kTopoFlags}, 1, cmd_topo},
    {"find", "<heuristic>", "white-box adversarial search (Eq. 1)",
     {kInstanceFlags, kRunFlags, kSolveFlags}, 1, cmd_find},
    {"bound", "dp|pop", "primal-dual gap upper bound",
     {kInstanceFlags, kRunFlags, kSolveFlags}, 1, cmd_bound},
    {"search", "hill|anneal|random|quant <heuristic>", "black-box baselines",
     {kInstanceFlags, kRunFlags}, 2, cmd_search},
    {"sweep", "key=value...", "parallel scenario sweep over a key=value grid",
     {kSweepFlags}, -1, cmd_sweep},
    {"merge-shards", "--out F shard...",
     "recombine sweep shards, byte-identical to the unsharded run",
     {kMergeFlags}, -1, cmd_merge_shards},
    {"explain", "<heuristic>",
     "minimal adversarial core of a gap witness (find or sweep JSONL)",
     {kInstanceFlags, kRunFlags, kExplainFlags}, 1, cmd_explain},
    {"help", "", "this overview", {}, 0, nullptr},
};

/// What a value of `kind` must be, or nullptr when `value` is one.
const char* value_problem(Kind kind, const std::string& value) {
  switch (kind) {
    case Number: return util::parse_double(value) ? nullptr : "a number";
    case Seconds:
      return util::parse_double(value).value_or(0.0) > 0.0 ? nullptr
                                                            : "seconds > 0";
    case Integer: return util::parse_uint(value) ? nullptr : "a count >= 0";
    case Positive:
      return util::parse_uint(value).value_or(0) > 0 ? nullptr
                                                      : "a count >= 1";
    default: return nullptr;
  }
}

/// Walks argv against the global table and, from the subcommand on, the
/// subcommand's tables. Switches never consume the next token; any other
/// flag takes exactly one value, checked against its kind. Throws
/// std::invalid_argument naming the offending flag or token.
Cli parse_cli(int argc, char** argv) {
  Cli cli;
  std::map<std::string, const Flag*> declared;
  const auto declare = [&](FlagTable table) {
    for (const Flag& flag : table) {
      declared[flag.name] = &flag;
      cli.values[flag.name] = flag.fallback;
    }
  };
  const auto error = [](const std::string& what) {
    return std::invalid_argument(what + " (see --help)");
  };
  declare(kGlobalFlags);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!util::starts_with(arg, "--")) {
      if (cli.command != nullptr) {
        if (std::ssize(cli.positional) == cli.command->max_positional) {
          throw error("unexpected argument '" + arg + "'");
        }
        cli.positional.push_back(arg);
        continue;
      }
      for (const Command& command : kCommands) {
        if (arg == command.name) cli.command = &command;
      }
      if (cli.command == nullptr) throw error("unknown command '" + arg + "'");
      for (FlagTable table : cli.command->tables) declare(table);
      continue;
    }
    const auto it = declared.find(arg.substr(2));
    if (it == declared.end()) throw error("unknown flag " + arg);
    const Kind kind = it->second->kind;
    if (kind == Switch) {
      cli.values[it->first] = "1";
      continue;
    }
    if (i + 1 == argc || util::starts_with(argv[i + 1], "--")) {
      throw error(arg + " needs a value");
    }
    const std::string value = argv[++i];
    if (const char* wanted = value_problem(kind, value)) {
      throw error(arg + " wants " + wanted + ", got '" + value + "'");
    }
    cli.values[it->first] = value;
  }
  return cli;
}

void print_flags(FlagTable table) {
  static const char* const kValue[] = {"",       " <number>", " <seconds>",
                                       " <int>", " <int>",    " <text>"};
  for (const Flag& flag : table) {
    const std::string left =
        std::string("--") + flag.name + kValue[static_cast<int>(flag.kind)];
    std::printf("  %-26s %s", left.c_str(), flag.help);
    if (*flag.fallback != '\0') std::printf(" (default %s)", flag.fallback);
    std::printf("\n");
  }
}

/// Subcommand overview; `out` is stdout for help requests and stderr for
/// usage errors (same text either way).
void print_help(std::FILE* out) {
  std::fputs("metaopt — adversarial gap analysis for fast heuristics\n\n"
             "subcommands:\n", out);
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %s %s\n      %s\n", command.name, command.args,
                 command.summary);
  }
  std::fprintf(out,
               "\nregistered heuristics: %s\n"
               "\n`metaopt <cmd> --help` lists a subcommand's flags.\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 nothing found\n",
               util::join(heur::registered_heuristics(), ", ").c_str());
}

/// Exports whatever the obs subsystem recorded (runs even when the
/// command failed, so a partial trace of a crash-adjacent run survives).
void export_obs(const Cli& cli) {
  if (!obs::enabled()) return;
  if (cli.on("trace")) {
    obs::write_chrome_trace(cli.str("trace"));
    std::fprintf(stderr, "trace:      %s (%zu events, %llu dropped)\n",
                 cli.str("trace").c_str(), obs::trace_events().size(),
                 static_cast<unsigned long long>(obs::trace_dropped()));
  }
  if (cli.on("trace-jsonl")) {
    obs::write_trace_jsonl(cli.str("trace-jsonl"));
    std::fprintf(stderr, "trace-jsonl: %s\n", cli.str("trace-jsonl").c_str());
  }
  if (cli.on("metrics")) {
    std::printf("metrics:   %s\n", obs::snapshot().to_json().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  domains::register_builtin();
  Cli cli;
  int rc = 1;
  try {
    cli = parse_cli(argc, argv);
    if (!util::set_log_level(cli.str("log"))) {
      throw std::invalid_argument("--log: unknown level " + cli.str("log"));
    }
    if (cli.command != nullptr && cli.on("help")) {
      std::printf("usage: metaopt %s %s [flags]\n%s\n\nflags:\n",
                  cli.command->name, cli.command->args, cli.command->summary);
      for (FlagTable table : cli.command->tables) print_flags(table);
      print_flags(kGlobalFlags);
      return 0;
    }
    if (cli.command == nullptr || cli.command->run == nullptr) {
      // `metaopt help` and `metaopt --help` print the overview; a bare
      // `metaopt` prints it too, but on stderr and failing.
      const bool asked = cli.command != nullptr || cli.on("help");
      print_help(asked ? stdout : stderr);
      return asked ? 0 : 2;
    }
    if (cli.on("metrics") || cli.on("trace") || cli.on("trace-jsonl")) {
      obs::set_enabled(true);
    }
    rc = cli.command->run(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "metaopt: %s\n", e.what());
    rc = 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  export_obs(cli);
  return rc;
}
