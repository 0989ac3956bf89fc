#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "util/string_util.h"

namespace metaopt::util {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};

// Serializes sink flushes so concurrent LogLines never interleave
// characters within a line (fprintf is atomic per call on POSIX, but the
// lock also keeps the ordering sane under sanitizers and future sinks).
std::mutex& sink_mutex() {
  static std::mutex mutex;
  return mutex;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?????";
}

double seconds_since_start() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

bool set_log_level(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "trace") set_log_level(LogLevel::Trace);
  else if (lower == "debug") set_log_level(LogLevel::Debug);
  else if (lower == "info") set_log_level(LogLevel::Info);
  else if (lower == "warn") set_log_level(LogLevel::Warn);
  else if (lower == "error") set_log_level(LogLevel::Error);
  else if (lower == "off") set_log_level(LogLevel::Off);
  else return false;
  return true;
}

namespace detail {

LogLine::LogLine(LogLevel level) : level_(level) {}

LogLine::~LogLine() {
  const double elapsed = seconds_since_start();
  const std::string line = stream_.str();
  std::lock_guard<std::mutex> lock(sink_mutex());
  std::fprintf(stderr, "[%8.3f] %s %s\n", elapsed, level_tag(level_),
               line.c_str());
}

}  // namespace detail

}  // namespace metaopt::util
