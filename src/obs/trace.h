// Ring-buffered scoped-span tracer.
//
// Spans are RAII (`ScopedSpan` / the MO_SPAN macro): construction stamps
// a steady-clock start (util::Stopwatch::now_ns — the same clock source
// the solver time limits use), destruction pushes one complete event
// into a global lock-free ring buffer. Counter events (`record_counter`)
// carry a value — the B&B uses them for the incumbent timeline
// ("bnb.incumbent"), which is how the Fig. 3 gap-vs-time curve can be
// read straight out of a trace.
//
// The ring holds the most recent `trace_capacity()` events; older ones
// are overwritten (the dropped count is reported by `trace_dropped()`).
// Pushes from concurrent threads claim distinct slots with one relaxed
// fetch_add. Export/clear/trace_events must run quiesced (no concurrent
// pushes) — a sweep is quiesced once fork_join returns in
// SweepRunner::run_jobs, and single-threaded CLI commands are quiesced
// throughout.
//
// Exports:
//   write_chrome_trace — Chrome trace-event JSON ("traceEvents" array);
//                        loads directly in Perfetto / chrome://tracing
//   write_trace_jsonl  — one raw event object per line
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace metaopt::obs {

struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< steady-clock start, nanoseconds
  std::uint64_t dur_ns = 0;  ///< 0 for counter/instant events
  const char* name = nullptr;  ///< must point at a string literal
  double value = 0.0;        ///< counter events only
  std::uint32_t tid = 0;     ///< small dense per-thread id
  char phase = 'X';          ///< 'X' complete, 'C' counter, 'i' instant
};

/// Small dense id of the calling thread (1-based, assigned on first use).
std::uint32_t thread_id();

/// Resets the ring to `capacity` slots (also clears it). Call before
/// tracing starts; the default capacity is 1<<16 events.
void set_trace_capacity(std::size_t capacity);
/// Drops all recorded events (quiesced callers only).
void clear_trace();
/// Events currently in the ring, oldest first (quiesced callers only).
std::vector<TraceEvent> trace_events();
/// Number of events overwritten since the last clear/resize.
std::uint64_t trace_dropped();

/// Raw event recording (all no-ops while !enabled()).
void record_complete(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns);
void record_counter(const char* name, double value);
void record_instant(const char* name);

/// Chrome trace-event JSON; timestamps are microseconds rebased to the
/// earliest event so traces start near t=0.
void write_chrome_trace(std::ostream& out);
void write_chrome_trace(const std::string& path);

/// One JSON object per event:
///   {"name":...,"phase":"X","tid":N,"ts_ns":...,"dur_ns":...,"value":...}
void write_trace_jsonl(std::ostream& out);
void write_trace_jsonl(const std::string& path);

/// RAII span: stamps start on construction (when enabled), records one
/// complete event on destruction. Optionally feeds the duration into a
/// histogram so traces and metric summaries stay consistent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ns_ = util::Stopwatch::now_ns();
    }
  }
  ScopedSpan(const char* name, Histogram duration_hist) noexcept
      : ScopedSpan(name) {
    hist_ = duration_hist;
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    const std::uint64_t end = util::Stopwatch::now_ns();
    record_complete(name_, start_ns_, end);
    hist_.observe(end - start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr <=> disabled at construction
  std::uint64_t start_ns_ = 0;
  Histogram hist_;  ///< default (unregistered) handle: observe is a no-op
};

}  // namespace metaopt::obs

// Uniquely named block-scope span. Usage: MO_SPAN("simplex.solve");
#define MO_OBS_CONCAT_INNER(a, b) a##b
#define MO_OBS_CONCAT(a, b) MO_OBS_CONCAT_INNER(a, b)
#define MO_SPAN(name) \
  const ::metaopt::obs::ScopedSpan MO_OBS_CONCAT(mo_span_, __LINE__)(name)
#define MO_SPAN_HIST(name, hist)                                        \
  const ::metaopt::obs::ScopedSpan MO_OBS_CONCAT(mo_span_, __LINE__)(name, \
                                                                     (hist))
