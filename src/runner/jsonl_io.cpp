#include "runner/jsonl_io.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/jsonl.h"

namespace metaopt::runner {

std::vector<JobResult> read_sweep_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<JobResult> records;
  std::string line;
  for (long line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    try {
      records.push_back(from_json(line));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " +
                               e.what());
    }
  }
  return records;
}

std::string merge_shard_jsonl(const std::vector<std::string>& paths) {
  std::vector<std::pair<int, std::string>> records;
  std::unordered_set<int> seen;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open shard JSONL " + path);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      // Parse only to extract the id; the line itself is carried over
      // verbatim so merging cannot perturb a single byte of a record.
      const util::JsonValue v = util::parse_json(line);
      const int id = static_cast<int>(v.number_or("job", -1));
      if (id < 0) {
        throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                 ": record has no \"job\" id");
      }
      if (!seen.insert(id).second) {
        throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                 ": job " + std::to_string(id) +
                                 " appears in more than one shard");
      }
      records.emplace_back(id, std::move(line));
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (const auto& [id, line] : records) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace metaopt::runner
