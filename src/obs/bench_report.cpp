#include "obs/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/jsonl.h"

namespace metaopt::obs {

namespace {

using util::json_number;
using util::json_string;

std::string summary_json(const util::Summary& s) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(s.count);
  out += ",\"mean\":" + json_number(s.mean);
  out += ",\"stddev\":" + json_number(s.stddev);
  out += ",\"min\":" + json_number(s.min);
  out += ",\"max\":" + json_number(s.max);
  out += ",\"sum\":" + json_number(s.sum);
  out += ",\"p50\":" + json_number(s.p50);
  out += ",\"p90\":" + json_number(s.p90);
  out += ",\"p99\":" + json_number(s.p99);
  out += "}";
  return out;
}

}  // namespace

void BenchReport::add_summary(const std::string& name,
                              const std::vector<double>& samples) {
  summaries.emplace_back(name, util::summarize(samples));
}

std::string BenchReport::to_json() const {
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"bench\": " + json_string(bench) + ",\n";
  out += "  \"git_sha\": " + json_string(git_sha) + ",\n";
  out += "  \"timestamp_unix\": " +
         std::to_string(static_cast<long long>(std::time(nullptr))) + ",\n";
  out += "  \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(config[i].first) + ":" + json_string(config[i].second);
  }
  out += "},\n";
  out += "  \"wall_seconds\": " + json_number(wall_seconds) + ",\n";
  out += "  \"metrics\": " + metrics.to_json() + ",\n";
  out += "  \"summaries\": {";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n    " + json_string(summaries[i].first) + ": " +
           summary_json(summaries[i].second);
  }
  out += summaries.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void BenchReport::write(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << to_json();
}

std::string BenchReport::build_git_sha() {
  if (const char* env = std::getenv("METAOPT_GIT_SHA")) {
    if (env[0] != '\0') return env;
  }
#ifdef METAOPT_GIT_SHA
  return METAOPT_GIT_SHA;
#else
  return "unknown";
#endif
}

}  // namespace metaopt::obs
