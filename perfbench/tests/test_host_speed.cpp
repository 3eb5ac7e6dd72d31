// The benchmark's host-speed scaling: which samples scale a call, and the
// sampler's bookkeeping around a timed call.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "host_speed.hpp"

namespace {

using perfbench::CallTime;
using perfbench::CallTimer;
using perfbench::HostSamples;
using perfbench::HostSpeedSampler;
using perfbench::host_samples;
using perfbench::host_speed;
using perfbench::kMinCallSamples;
using perfbench::scaled_ms;

/// Busy work on this thread for `ms` of wall time.
double spin(double ms) {
  const auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  while (std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count() <
         ms)
    sink += perfbench::reference_kernel();
  return sink;
}

TEST(HostSpeed, IsTheMeanOfPerSampleSpeeds) {
  EXPECT_DOUBLE_EQ(host_speed({0.0, 0.0, 0}), 0.0);
  // Runs of 0.2 ms and 0.4 ms: speeds 1 and 0.5 average to 0.75; a mean of
  // times would say 0.2 / 0.3 instead.
  HostSamples two{0.6, 1.5, 2};
  EXPECT_DOUBLE_EQ(host_speed(two), 0.75);
  two += HostSamples{10.0, 0.02, 1};  // one preempted run barely moves it
  EXPECT_NEAR(host_speed(two), 0.5067, 1e-4);
}

TEST(HostSpeed, ACallIsScaledByItsOwnSamplesOrElseItsPass) {
  const HostSamples pass{2.0, 3.2, 4};  // speed 0.8
  const std::vector<CallTime> calls = {
      {10.0, {1.0, 0.5 * kMinCallSamples, kMinCallSamples}},  // own samples: speed 0.5
      {10.0, {0.5, 1.0, kMinCallSamples - 1}},                // too few: the pass's
      {10.0, {}},
  };
  const std::vector<double> ms = scaled_ms(calls, pass);
  ASSERT_EQ(ms.size(), 3u);
  EXPECT_DOUBLE_EQ(ms[0], 5.0);
  EXPECT_DOUBLE_EQ(ms[1], 8.0);
  EXPECT_DOUBLE_EQ(ms[2], 8.0);
  EXPECT_THROW(scaled_ms({{10.0, {}}}, HostSamples{}), std::runtime_error);
}

TEST(HostSpeed, SamplerRunsInsideACallAndItsTimeIsTakenOut) {
  CallTime call;
  double wall_ms = 0.0;
  {
    const HostSpeedSampler sampler;
    EXPECT_THROW(HostSpeedSampler(), std::logic_error);
    const auto t0 = std::chrono::steady_clock::now();
    const CallTimer timer;
    spin(100.0);
    call = timer.stop();
    wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  }
  // 100 ms of CPU at a 5 ms period; the timer's ticks are coarse, so allow
  // for half of them.
  EXPECT_GE(call.host.count, 10u);
  EXPECT_GT(host_speed(call.host), 0.0);
  EXPECT_GT(call.host.kernel_ms, 0.0);
  EXPECT_NEAR(call.ms + call.host.kernel_ms, wall_ms, 1.0);

  // Disarmed: no more samples.
  const HostSamples after = host_samples();
  spin(30.0);
  EXPECT_EQ(host_samples().count, after.count);
}

}  // namespace
