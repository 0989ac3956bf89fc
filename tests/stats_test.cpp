#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/stopwatch.h"

namespace metaopt::util {
namespace {

TEST(Stats, EmptyInputYieldsZeros) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, SingleElement) {
  const Summary s = summarize({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 42.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 42.0);
  EXPECT_EQ(s.max, 42.0);
  EXPECT_EQ(s.sum, 42.0);
  EXPECT_EQ(s.p50, 42.0);
  EXPECT_EQ(s.p90, 42.0);
  EXPECT_EQ(s.p99, 42.0);
}

TEST(Stats, InterpolatedPercentiles) {
  // 0..10: pos = q * 10, exact at the integers, interpolated between.
  const std::vector<double> v = {10.0, 0.0, 2.0, 8.0, 4.0,
                                 6.0,  1.0, 9.0, 3.0, 5.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.95), 9.5);
  // Out-of-range quantiles clamp.
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 10.0);
}

TEST(Stats, SummaryMatchesUnsortedInput) {
  const std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, v.size());
  EXPECT_DOUBLE_EQ(s.sum, 31.0);
  EXPECT_DOUBLE_EQ(s.mean, 31.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.p50, percentile(v, 0.5));
  EXPECT_DOUBLE_EQ(s.p90, percentile(v, 0.9));
  EXPECT_DOUBLE_EQ(s.p99, percentile(v, 0.99));
}

TEST(Stats, PercentilesAreMonotoneInQ) {
  const std::vector<double> v = {0.3, 12.0, -4.5, 7.7, 7.7, 100.0, 0.0};
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  double prev = percentile_sorted(sorted, 0.0);
  for (int i = 1; i <= 100; ++i) {
    const double cur = percentile_sorted(sorted, i / 100.0);
    // Interpolating between equal neighbors can dip a few ULPs below the
    // exact value; monotone up to that rounding noise.
    EXPECT_GE(cur, prev - 1e-12 * std::max(1.0, std::abs(prev)))
        << "q=" << i / 100.0;
    prev = cur;
  }
  const Summary s = summarize(v);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Stopwatch, NowNsIsMonotonic) {
  std::uint64_t prev = Stopwatch::now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t cur = Stopwatch::now_ns();
    ASSERT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Stopwatch, ElapsedTracksNowNs) {
  // t0 is read before the stopwatch starts and `outer` after its last
  // read, so elapsed <= outer holds whatever the scheduler does.
  const std::uint64_t t0 = Stopwatch::now_ns();
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t elapsed = watch.elapsed_ns();
  const std::uint64_t outer = Stopwatch::now_ns() - t0;
  EXPECT_GT(elapsed, 0u);
  EXPECT_LE(elapsed, outer);
  EXPECT_NEAR(watch.seconds(), static_cast<double>(watch.elapsed_ns()) * 1e-9,
              1e-2);
}

}  // namespace
}  // namespace metaopt::util
