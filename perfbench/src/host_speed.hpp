#pragma once
/// \file host_speed.hpp
/// \brief Host-speed sampling inside the timed calls, and the scaling of
/// their wall times to a reference host speed.
///
/// On a shared host the speed one core delivers moves by a third within
/// seconds (other tenants' load on the same physical core), and the moves
/// are slow enough to shift whole runs. While a `HostSpeedSampler` is armed,
/// a profiling timer interrupts the timed thread every few milliseconds of
/// its CPU time and runs a fixed reference kernel in the signal handler, so
/// the host is sampled during the calls themselves, on the same core. A
/// call's wall time, minus the kernel runs inside it, is then scaled by the
/// host speed its samples saw.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Reference-kernel runs taken so far (cumulative, or a difference of two
/// readings).
struct HostSamples {
  double kernel_ms = 0.0;  ///< Σ wall time of the kernel runs
  double speed_sum = 0.0;  ///< Σ kReferenceKernelMs / wall time of each run
  std::uint64_t count = 0;
  HostSamples operator-(const HostSamples& earlier) const {
    return {kernel_ms - earlier.kernel_ms, speed_sum - earlier.speed_sum,
            count - earlier.count};
  }
  HostSamples& operator+=(const HostSamples& more) {
    kernel_ms += more.kernel_ms;
    speed_sum += more.speed_sum;
    count += more.count;
    return *this;
  }
};

/// Wall time of one reference-kernel run on an uncontended core of a 4-vCPU
/// KVM guest on an Intel Xeon (Sapphire Rapids), rounded up from the fastest
/// run measured there (0.18 ms) [ms]. A host that runs the kernel in this
/// time has speed 1, and there a scaled second equals a wall second.
inline constexpr double kReferenceKernelMs = 0.2;

/// Profiling-timer period of the sampler [µs of the process's CPU time].
inline constexpr int kSamplePeriodUs = 5000;

/// Samples that make a call's own host-speed reading; a call with fewer is
/// scaled by the samples of its whole pass.
inline constexpr std::uint64_t kMinCallSamples = 4;

/// One run of the reference kernel: overdamped Langevin steps of a particle
/// in a Gaussian well, driven by Box-Muller normal deviates from a xorshift
/// generator. It uses the instruction mix of the simulator's physics step
/// (square roots, logarithms, cosines, exponentials and multiply-add
/// chains) in registers only, so it measures the core, not the caches.
/// Returns a value that depends on every step.
double reference_kernel();

/// Arms the sampler for its lifetime. One at a time; not copyable.
class HostSpeedSampler {
 public:
  HostSpeedSampler();
  ~HostSpeedSampler();
  HostSpeedSampler(const HostSpeedSampler&) = delete;
  HostSpeedSampler& operator=(const HostSpeedSampler&) = delete;
};

/// Every sample taken in this process so far.
HostSamples host_samples();

/// Host speed the samples saw, as the mean of kReferenceKernelMs over each
/// run's time (1 = the reference host; 0.8 = a fifth slower). Samples come
/// at even steps of CPU time, so a call's wall time times this mean is the
/// time the reference host would have taken. A run the scheduler preempted
/// counts as speed near 0 rather than as a long time, so one cannot swamp
/// the mean. Zero samples: 0.
double host_speed(const HostSamples& samples);

/// Wall time of one timed call with the sampler's own time taken out.
struct CallTime {
  double ms = 0.0;
  HostSamples host;  ///< kernel runs taken inside the call
};

/// Times one call: construct just before it, stop() just after.
class CallTimer {
 public:
  CallTimer();
  CallTime stop() const;

 private:
  HostSamples start_samples_;
  std::int64_t start_ns_ = 0;
};

/// Scaled milliseconds of each call: its wall time times the host speed of
/// its own samples, or of `pass` (all samples of the pass the call belongs
/// to) when it holds fewer than kMinCallSamples. Throws when neither has a
/// sample.
std::vector<double> scaled_ms(const std::vector<CallTime>& calls, const HostSamples& pass);

}  // namespace perfbench
