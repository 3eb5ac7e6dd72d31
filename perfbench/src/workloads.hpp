#pragma once
/// \file workloads.hpp
/// \brief The four serial workloads, each a fixed amount of simulated work
/// made from the workload seed.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "layers.hpp"

namespace perfbench {

/// One metric line: simulated metrics repeat exactly for a fixed seed, host
/// metrics are clock measurements.
struct Metric {
  std::string name;
  std::optional<double> value;  ///< empty = withheld (too few samples)
  std::string unit;
  bool simulated = false;
};

/// One pass over a workload's work. Every pass of one seed simulates the
/// same thing; only the host-time members differ between passes.
struct Pass {
  std::uint64_t digest = 0;          ///< hash of every simulated statistic
  std::vector<CallTime> calls;       ///< each timed public call, with its host samples
  std::vector<std::uint64_t> call_chamber_ticks;  ///< chamber-ticks each call simulated
  double timed_s = 0.0;              ///< Σ calls' wall time, in seconds
  std::uint64_t ticks = 0;           ///< global supervisory ticks
  std::uint64_t chamber_ticks = 0;   ///< simulated chamber-ticks, elided included
  std::uint64_t elided_chamber_ticks = 0;
  std::uint64_t frames_sensed = 0;
  std::uint64_t replans = 0;         ///< counting plane; traced passes of streaming only
  std::uint64_t faults_injected = 0;
  std::vector<Metric> simulated;     ///< workload-specific simulated metrics
  std::vector<std::string> failures; ///< output checks that did not hold
};

/// Wall-clock parts of one set-up.
struct SetupParts {
  CallTime cage_calibrate;
  CallTime world_build;
  std::optional<CallTime> initial_plan;  ///< rare_cell only: EpisodeRuntime construction
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Calibrate the cage and build the first episode's chip worlds, as a
  /// user's program would before its first simulated tick.
  virtual SetupParts setup() = 0;
  /// One pass over the seed's work, serial. With `trace` set, the library's
  /// timing plane is attached and its spans are folded into `trace`.
  virtual Pass run(LayerFold* trace) = 0;
  /// Stem and tail percentile of the per-call latency metric, for workloads
  /// made of many timed calls (null stem: one call is the whole pass).
  struct CallLatency {
    const char* stem = nullptr;
    int tail = 0;
  };
  virtual CallLatency call_latency() const { return {}; }
  /// Checks that need a second configuration of the same inputs.
  virtual std::vector<std::string> cross_checks(const Pass& measured) {
    (void)measured;
    return {};
  }
};

/// Every workload's default seed and held-out seed: a change is tuned on
/// the first and its claim re-checked on the second.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldoutSeed = 1001;

/// Names of the workloads, in the order the documentation lists them.
const std::vector<std::string>& workload_names();
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
