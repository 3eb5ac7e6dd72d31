#include "host_speed.hpp"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace perfbench {
namespace {

// Written only by the signal handler, which runs on the timed thread
// itself: a reader sees either all of one sample or none of it.
std::atomic<std::uint64_t> g_kernel_ns{0};
std::atomic<double> g_speed_sum{0.0};
std::atomic<std::uint64_t> g_count{0};
volatile double g_sink = 0.0;
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<double>::is_always_lock_free,
              "the signal handler may only touch lock-free atomics");

std::atomic<bool> g_armed{false};
struct sigaction g_previous {};  // SIGPROF's action before the sampler was armed

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // async-signal-safe
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void on_sample(int) {
  const int saved_errno = errno;
  const std::int64_t t0 = now_ns();
  g_sink = reference_kernel();
  const std::int64_t t1 = now_ns();
  g_kernel_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0), std::memory_order_relaxed);
  g_speed_sum.store(g_speed_sum.load(std::memory_order_relaxed) +
                        kReferenceKernelMs * 1e6 / static_cast<double>(t1 - t0),
                    std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_release);
  g_count.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

bool set_timer(int period_us) {
  itimerval it{};
  it.it_interval.tv_usec = period_us;
  it.it_value.tv_usec = period_us;
  return setitimer(ITIMER_PROF, &it, nullptr) == 0;
}

}  // namespace

double reference_kernel() {
  constexpr int kSteps = 5000;
  constexpr double kTwoPi = 6.283185307179586;
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  const auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s >> 11) * 0x1.0p-53;
  };
  double x = 0.0, y = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const double u1 = next() + 0x1.0p-54;  // in (0, 1): log stays finite
    const double g = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * next());
    x += -0.01 * x + 0.1 * g;
    y += -0.01 * y * std::exp(-x * x) + 0.05 * g;
  }
  return x + y;
}

HostSpeedSampler::HostSpeedSampler() {
  if (g_armed.exchange(true)) throw std::logic_error("host-speed sampler armed twice");
  struct sigaction sa {};
  sa.sa_handler = on_sample;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_previous) != 0) {
    g_armed = false;
    throw std::runtime_error("host-speed sampler: sigaction failed");
  }
  if (!set_timer(kSamplePeriodUs)) {
    sigaction(SIGPROF, &g_previous, nullptr);
    g_armed = false;
    throw std::runtime_error("host-speed sampler: setitimer failed");
  }
}

HostSpeedSampler::~HostSpeedSampler() {
  set_timer(0);
  sigaction(SIGPROF, &g_previous, nullptr);
  g_armed = false;
}

HostSamples host_samples() {
  // The handler interrupts this thread and runs to completion, so the count
  // is unchanged across the two loads exactly when no sample landed between.
  for (;;) {
    const std::uint64_t count = g_count.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_acquire);
    const std::uint64_t ns = g_kernel_ns.load(std::memory_order_relaxed);
    const double speed_sum = g_speed_sum.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_acquire);
    if (g_count.load(std::memory_order_relaxed) == count)
      return {static_cast<double>(ns) * 1e-6, speed_sum, count};
  }
}

double host_speed(const HostSamples& samples) {
  if (samples.count == 0) return 0.0;
  return samples.speed_sum / static_cast<double>(samples.count);
}

namespace {

/// The samples so far and the time, with no sample landing between the two.
std::pair<HostSamples, std::int64_t> stamp() {
  for (;;) {
    const HostSamples before = host_samples();
    const std::int64_t ns = now_ns();
    if (host_samples().count == before.count) return {before, ns};
  }
}

}  // namespace

CallTimer::CallTimer() { std::tie(start_samples_, start_ns_) = stamp(); }

CallTime CallTimer::stop() const {
  const auto [samples, end_ns] = stamp();
  const HostSamples inside = samples - start_samples_;
  return {static_cast<double>(end_ns - start_ns_) * 1e-6 - inside.kernel_ms, inside};
}

std::vector<double> scaled_ms(const std::vector<CallTime>& calls, const HostSamples& pass) {
  std::vector<double> out;
  out.reserve(calls.size());
  for (const CallTime& c : calls) {
    const HostSamples& h = c.host.count >= kMinCallSamples ? c.host : pass;
    if (h.count == 0) throw std::runtime_error("a timed call has no host-speed sample");
    out.push_back(c.ms * host_speed(h));
  }
  return out;
}

}  // namespace perfbench
