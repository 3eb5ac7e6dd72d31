#pragma once
/// \file streaming.hpp
/// \brief Open-system streaming mode: continuous arrivals, admission control,
/// backpressure, bounded-memory indefinite operation.
///
/// The paper's chip is a cytometer front-end, not an episode machine: cells
/// keep flowing in while earlier ones are still being caged, towed and
/// delivered. `StreamingService` turns the orchestrated multi-chamber world
/// into that service. Each supervisory tick it
///
///  1. applies this tick's runtime faults (serial, `chip::FaultInjector`);
///  2. draws Poisson arrivals per `fluidic::InletPort` from counter-based
///     streams keyed (inlet, tick) — the arrival sequence depends only on
///     (seed, inlet id, tick), never on worker count, chamber count, or call
///     interleaving — and offers them to the `AdmissionController`, which
///     sheds past the queue-depth watermark (`kAdmissionShed`);
///  3. steps its `ChamberFleet`: the per-chamber supervisory ticks fan out
///     over the worker pool (barrier-synchronized, disjoint fork-stream
///     spaces);
///  4. harvests delivered cages (time-in-chip into a fixed-bin latency
///     histogram, cage + body slot recycled), evicts cells past the service
///     deadline (`kDeliveryFailed` — an explicit failure, never a livelock);
///  5. admits queued heads under the per-chamber in-flight quota the
///     chamber's health rung scales down, rotating over the chamber's goal
///     sites (first deferral of a head audits `kAdmissionDeferred`);
///  6. drains observed audit events into bounded per-chamber counters and
///     compacts committed-path history (`Replanner::compact`).
///
/// Memory contract: with `ControlConfig::recycle_slots` (forced on here) and
/// cage-id recycling, steady state allocates nothing per arrival — body
/// slots, cage slots, paths, tracks and supervision records are all reused,
/// the audit trail is drained every tick, and the latency histogram is fixed
/// size. Peak residency is bounded by quota × chambers + capacity × inlets,
/// independent of how long the service runs or how hard it is overloaded.
///
/// Determinism contract: identical to the orchestrator's — arrivals,
/// admission and harvest run serially in ascending (inlet | chamber) order
/// between barrier-synchronized chamber ticks, all randomness is
/// counter-keyed, so a run is **bitwise identical** for any worker count and
/// chunking (`max_parts = 1` = serial reference).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/fault_injector.hpp"
#include "common/rng.hpp"
#include "control/admission.hpp"
#include "control/config.hpp"
#include "control/engine.hpp"
#include "control/fleet.hpp"
#include "control/health.hpp"
#include "fluidic/chamber_network.hpp"
#include "physics/dynamics.hpp"

namespace biochip::core {
class ThreadPool;
}
namespace biochip::obs {
class Observer;
}

namespace biochip::control {

struct StreamingConfig {
  /// Per-chamber control config. Streaming requires the closed loop
  /// (delivery is confirmed by supervision) and forces `recycle_slots` on.
  ControlConfig control;
  double site_period = 0.4;  ///< [s] per supervisory tick
  /// Service horizon in ticks. Memory does not scale with it — a 1M-tick
  /// soak holds the same peak residency as a 2k-tick smoke run.
  int ticks = 2000;
  /// Mean Poisson arrivals per tick, one entry per network inlet.
  std::vector<double> arrival_rates;
  /// Cell-type mix: `type_weights[k]` selects `body_prototypes[k]`
  /// (normalized internally; same length required).
  std::vector<double> type_weights;
  /// One template body per cell type (radius / density / dep_prefactor set
  /// by the caller, e.g. from `cell::library` via ParticleSpec). Position
  /// and id are overwritten at admission.
  std::vector<physics::ParticleBody> body_prototypes;
  AdmissionConfig admission;
  /// Delivery sites per chamber; admissions rotate over them (defect-blocked
  /// sites are skipped). Every chamber with an inlet needs at least one.
  std::vector<std::vector<GridCoord>> goal_sites;
  /// Ticks an admitted cell may stay in flight before it is evicted with an
  /// explicit `kDeliveryFailed` (frees its quota — a wedged delivery can
  /// never livelock the chamber shut). 0 = never evict.
  int service_deadline = 400;
  /// Runtime fault schedule (chamber kinds only — streaming v1 runs no
  /// transfer legs, so port kinds are rejected at construction).
  chip::FaultScheduleConfig faults;
  /// Skip full ticks of chambers with no cage and no queued admission work
  /// (the watchdog still observes — same contract as the orchestrator).
  bool elide_idle_chambers = false;
  /// Latency histogram bins (1 tick each) + one overflow bin.
  int max_latency_bins = 512;
};

/// Bounded aggregate accounting of one streaming run. Everything is a
/// counter or a fixed-size histogram — nothing grows with the horizon — and
/// every member is comparable, so the serial-vs-pooled bitwise contract is
/// checked with a single `==`.
struct StreamingReport {
  int ticks = 0;
  AdmissionStats admission;
  std::uint64_t delivered = 0;  ///< harvested with a confirmed cell at a goal
  std::uint64_t evicted = 0;    ///< failed on the service deadline
  /// `latency_hist[k]` = deliveries with time-in-chip (arrival → harvest) of
  /// k ticks; the last bin collects >= max_latency_bins.
  std::vector<std::uint64_t> latency_hist;
  std::size_t peak_in_flight = 0;       ///< max queued + caged, any tick
  std::size_t peak_resident_bodies = 0; ///< max Σ body-array slots
  std::size_t peak_cage_slots = 0;      ///< max Σ cage-controller slots
  std::size_t frames_sensed = 0;        ///< CDS frames across all chambers
  /// Period advances across all chambers, by path (see EpisodeReport).
  std::size_t exact_advances = 0;
  std::size_t em_advances = 0;
  /// `event_counts[c][k]` = events of `EventKind` k chamber c emitted.
  std::vector<std::vector<std::uint64_t>> event_counts;
  std::uint64_t injected_faults = 0;
  std::vector<HealthState> health;  ///< final rung per chamber
  std::size_t elided_chamber_ticks = 0;
  std::size_t in_flight_end = 0;  ///< still caged when the horizon ended
  std::size_t queued_end = 0;     ///< still queued at an inlet

  bool operator==(const StreamingReport&) const = default;

  /// Delivered-cell throughput for a tick period [s].
  double cells_per_hour(double site_period) const;
  /// Smallest latency [ticks] with cumulative delivered fraction >= q
  /// (q in (0, 1]); -1 when nothing was delivered. The overflow bin reports
  /// as `max_latency_bins`.
  int latency_quantile(double q) const;
};

/// Total events of one kind across all chambers of a streaming report.
std::uint64_t count_events(const StreamingReport& report, EventKind kind);

/// The arrival process, exposed for tests: arrivals at `inlet` on `tick`
/// drawn from `arrivals_base.fork(inlet).fork(tick)` — a pure function of
/// (stream, inlet, tick, rate, weights). Appends one type index per arrival
/// to `types_out` (cleared first) and returns the count.
std::size_t sample_arrivals(const Rng& arrivals_base, int inlet, int tick,
                            double rate, const std::vector<double>& type_weights,
                            std::vector<int>& types_out);

/// Drives the open-system streaming mode over a `fluidic::ChamberNetwork`
/// with declared inlets.
class StreamingService {
 public:
  StreamingService(const fluidic::ChamberNetwork& network, StreamingConfig config);

  const StreamingConfig& config() const { return config_; }
  const fluidic::ChamberNetwork& network() const { return network_; }

  /// Run the service for `config().ticks` supervisory ticks. `chambers[c]`
  /// is the world of network chamber c (normally empty of cages — arrivals
  /// populate it); cage-id recycling is switched on on every controller.
  /// Chamber ticks fan out over `pool` (null = serial) in at most
  /// `max_parts` chunks; reports are bitwise identical for any choice.
  StreamingReport run(std::vector<ChamberSetup>& chambers, Rng stream_base,
                      core::ThreadPool* pool, std::size_t max_parts = 0);

  /// Attach a telemetry observer for subsequent `run` calls (null = off).
  /// Counting-plane folds happen in the serial driver sections, so enabling
  /// telemetry never perturbs the report or the bitwise identity contract.
  void set_observer(obs::Observer* obs) { obs_ = obs; }

 private:
  const fluidic::ChamberNetwork& network_;
  StreamingConfig config_;
  obs::Observer* obs_ = nullptr;
};

}  // namespace biochip::control
