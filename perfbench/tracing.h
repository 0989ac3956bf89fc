// Bench-side tracing for the traced run (--trace 1).
//
// Spans are recorded here, around the benchmark's own calls into each
// library layer, not inside the library: every span carries the id of
// the operation it belongs to and the index of the span that caused it,
// is kept in memory, and is written out as JSONL when the run ends. A
// layer's self time is its spans' duration minus what their child spans
// cover.
//
// TimedOracle is the bench-side decorator behind the te.* metrics: it
// times every evaluate() of the oracle it wraps and keeps the evaluated
// vectors so they can be replayed through the direct TE solvers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "heur/gap.h"
#include "util/stopwatch.h"

namespace metaopt::perfbench {

class SpanLog {
 public:
  struct Span {
    std::uint64_t op = 0;  ///< operation the span belongs to
    int parent = -1;       ///< index of the causing span, -1 for roots
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// Spans are recorded only while enabled (the traced phase). Toggle
  /// only between operations, while no pool thread is opening spans.
  void set_enabled(bool on) { enabled_ = on; }

  /// Starts the next operation; later spans carry its id.
  void begin_op() { ++op_; }

  /// Opens a span under `parent` and returns its index (-1 when off).
  /// Thread-safe: campaign jobs open spans from pool threads.
  int open(const std::string& name, int parent) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{op_, parent, name, util::Stopwatch::now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    if (index < 0) return;
    const std::uint64_t end = util::Stopwatch::now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
  }

  /// Summed duration and self time per span name, in seconds.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    long count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    // Children of one span may overlap (campaign jobs run on several
    // workers), so self time subtracts the union of their intervals.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::sort(kids[i].begin(), kids[i].end());
      std::uint64_t covered = 0;
      std::uint64_t reach = 0;
      for (const auto& [start, end] : kids[i]) {
        const std::uint64_t from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
      Totals& t = out[spans_[i].name];
      t.total_s += seconds(spans_[i]);
      t.self_s += seconds(spans_[i]) - static_cast<double>(covered) * 1e-9;
      ++t.count;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// One JSON object per span: op, id, parent, name, start/end (ns).
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"op\":" << s.op << ",\"id\":" << i << ",\"parent\":"
          << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }

 private:
  static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. The parent defaults to the innermost open span of the
/// calling thread; pool threads pass it explicitly.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : ScopedSpan(log, name, current()) {}
  ScopedSpan(SpanLog& log, const std::string& name, int parent)
      : log_(log), index_(log.open(name, parent)), saved_(current()) {
    if (index_ >= 0) current() = index_;
  }
  ~ScopedSpan() {
    log_.close(index_);
    if (index_ >= 0) current() = saved_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  static int& current() {
    thread_local int innermost = -1;
    return innermost;
  }

  SpanLog& log_;
  int index_;
  int saved_;
};

/// Times every evaluate() of `base` and records the first `keep` nonzero
/// vectors it evaluates (the searchers start with the all-zero vector,
/// a trivial solve). Single-threaded use: the searchers call evaluate()
/// from the calling thread only.
class TimedOracle final : public heur::GapOracle {
 public:
  TimedOracle(const heur::GapOracle& base, std::size_t keep)
      : base_(base), keep_(keep) {}

  [[nodiscard]] int num_leader_vars() const override {
    return base_.num_leader_vars();
  }
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>& leader) const override {
    count_evaluation();
    const std::uint64_t t0 = util::Stopwatch::now_ns();
    heur::GapResult r = base_.evaluate(leader);
    busy_ns_ += util::Stopwatch::now_ns() - t0;
    if (recorded_.size() < keep_ &&
        std::any_of(leader.begin(), leader.end(),
                    [](double v) { return v > 0.0; })) {
      recorded_.push_back(leader);
    }
    return r;
  }

  [[nodiscard]] double busy_s() const {
    return static_cast<double>(busy_ns_) * 1e-9;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& recorded() const {
    return recorded_;
  }

 private:
  const heur::GapOracle& base_;
  std::size_t keep_;
  mutable std::uint64_t busy_ns_ = 0;
  mutable std::vector<std::vector<double>> recorded_;
};

}  // namespace metaopt::perfbench
