// The benchmark's own arithmetic: span self times and guarded percentiles.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "layers.hpp"

namespace {

using biochip::obs::TraceSpan;
using perfbench::LayerFold;
using perfbench::percentile;
using perfbench::self_times;

// One streaming tick as the drivers record it: sequential driver phases on
// lane -1, and inside `chambers` each chamber's sequential phases. Spans
// are listed in recording order (a span is recorded when it ends).
std::vector<TraceSpan> one_tick(int tick, std::uint64_t t0) {
  return {
      {"faults", t0, 10, -1, tick},
      {"arrivals", t0 + 10, 20, -1, tick},
      {"actuate", t0 + 35, 5, 0, tick},
      {"physics", t0 + 40, 100, 0, tick},
      {"sense", t0 + 140, 20, 0, tick},
      {"actuate", t0 + 165, 5, 1, tick},
      {"physics", t0 + 170, 60, 1, tick},
      {"chambers", t0 + 30, 210, -1, tick},
      {"harvest", t0 + 240, 15, -1, tick},
  };
}

TEST(SelfTimes, ChambersSpanKeepsOnlyItsDispatchTime) {
  const std::vector<TraceSpan> spans = one_tick(1, 1000);
  const std::vector<std::uint64_t> self = self_times(spans);
  // chambers: 210 ns minus the 190 ns of chamber-lane spans nested in it.
  EXPECT_EQ(self[7], 20u);
  EXPECT_EQ(self[3], 100u);  // leaf spans keep their whole duration
  EXPECT_EQ(self[0], 10u);
}

TEST(SelfTimes, SumEqualsWallTimeSoNothingIsCountedTwice) {
  std::vector<TraceSpan> spans = one_tick(1, 1000);
  const std::vector<TraceSpan> second = one_tick(2, 1255);
  spans.insert(spans.end(), second.begin(), second.end());
  const std::vector<std::uint64_t> self = self_times(spans);
  // Two ticks of 255 ns each: the top-level driver spans tile the wall time.
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::uint64_t{0}), 510u);

  LayerFold fold;
  fold.add(spans);
  EXPECT_NEAR(fold.covered_us(), 0.510, 1e-12);
  EXPECT_NEAR(fold.total_us("chambers"), 0.040, 1e-12);
  EXPECT_EQ(fold.samples_us("physics").size(), 4u);
  EXPECT_TRUE(fold.samples_us("arbitrate").empty());
}

TEST(SelfTimes, RefusesANestedSpanOfAnotherTick) {
  std::vector<TraceSpan> spans = one_tick(1, 1000);
  spans[3].tick = 2;
  EXPECT_THROW(self_times(spans), std::runtime_error);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  std::vector<double> v(999);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_FALSE(percentile(v, 99).has_value());  // rank 990: only 9 beyond
  v.push_back(1000.0);
  ASSERT_TRUE(percentile(v, 99).has_value());  // rank 990: 10 beyond
  EXPECT_DOUBLE_EQ(*percentile(v, 99), 990.0);

  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  ASSERT_TRUE(percentile(hundred, 90).has_value());
  EXPECT_DOUBLE_EQ(*percentile(hundred, 90), 90.0);
  hundred.pop_back();
  EXPECT_FALSE(percentile(hundred, 90).has_value());

  std::vector<double> twenty(20, 3.0);
  EXPECT_TRUE(percentile(twenty, 50).has_value());
  twenty.pop_back();
  EXPECT_FALSE(percentile(twenty, 50).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Percentile, NearestRankIgnoresInputOrder) {
  std::vector<double> v;
  for (int k = 100; k >= 1; --k) v.push_back(k);
  EXPECT_DOUBLE_EQ(*percentile(v, 50), 50.0);
}

}  // namespace
