// Monotonic stopwatch used for solver time limits and bench traces.
#pragma once

#include <chrono>
#include <cstdint>

namespace metaopt::util {

/// Wall-clock stopwatch backed by std::chrono::steady_clock.
///
/// `now_ns()` is the repo's single monotonic clock source: solver time
/// limits (via this class) and obs trace spans all read it, so their
/// timestamps are directly comparable.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(now_ns()) {}

  /// Steady-clock timestamp in nanoseconds (epoch is arbitrary but
  /// monotonic and process-wide consistent).
  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count());
  }

  /// Restarts the stopwatch from zero.
  void reset() { start_ns_ = now_ns(); }

  /// Nanoseconds elapsed since construction or the last reset().
  [[nodiscard]] std::uint64_t elapsed_ns() const {
    return now_ns() - start_ns_;
  }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  using clock = std::chrono::steady_clock;
  std::uint64_t start_ns_;
};

}  // namespace metaopt::util
