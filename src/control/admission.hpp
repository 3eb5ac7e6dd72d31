#pragma once
/// \file admission.hpp
/// \brief Open-system admission control: inlet queues, quotas, load shedding.
///
/// The paper's device is a service, not an episode: cells keep arriving at
/// the chip while earlier ones are still being towed. `AdmissionController`
/// is the global backpressure layer between the arrival process and the
/// per-chamber control stacks:
///
///  * each `fluidic::InletPort` owns a bounded FIFO of pending cells; an
///    arrival that finds the queue at its capacity watermark is **shed**
///    (`EventKind::kAdmissionShed`) — dropped to waste, explicitly, so 2×
///    overload degrades shed fraction and latency, never memory;
///  * the head of each queue is offered to its chamber once per tick, gated
///    by a per-chamber in-flight quota that the chamber's `HealthMonitor`
///    rung scales down (degraded chambers take half, quarantined chambers
///    none), by one admission per chamber per tick (so one tick never
///    floods a chamber's reservation table), and by the chamber runtime's
///    own admission test (`EpisodeRuntime::admit_cage`: port clear,
///    unreserved, routable);
///  * a head that cannot be admitted is **deferred** in place — the first
///    deferral of each cell is audited (`kAdmissionDeferred`), later ones
///    are just queue wait, so the audit trail stays bounded per cell.
///
/// Everything is plain bookkeeping — no RNG, no wall clock — so admission
/// decisions preserve the serial-vs-pooled bitwise determinism contract.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "control/health.hpp"

namespace biochip::control {

struct AdmissionConfig {
  /// Queue-depth watermark per inlet: an arrival beyond this is shed.
  int queue_capacity = 8;
  /// Max in-flight (supervised) cells per healthy chamber.
  int chamber_quota = 4;
  /// Quota while the chamber is kDegraded (kQuarantined always admits 0).
  int degraded_quota = 2;
};

/// One cell waiting at an inlet.
struct PendingCell {
  std::uint64_t seq = 0;  ///< global arrival number (monotone, never reused)
  int arrival_tick = 0;   ///< tick the cell arrived at the inlet
  int type = 0;           ///< index into the caller's cell-type mix
  bool deferred = false;  ///< already audited as kAdmissionDeferred
};

/// Aggregate admission accounting (bounded — no per-cell history).
struct AdmissionStats {
  std::uint64_t offered = 0;   ///< arrivals drawn from the arrival process
  std::uint64_t shed = 0;      ///< dropped at a full inlet queue
  std::uint64_t deferrals = 0; ///< first-time head deferrals (= audit events)
  std::uint64_t admitted = 0;  ///< cells caged by a chamber runtime
  std::uint64_t queue_wait_ticks = 0;  ///< total cell-ticks spent queued

  bool operator==(const AdmissionStats&) const = default;
};

class AdmissionController {
 public:
  AdmissionController(AdmissionConfig config, std::size_t n_inlets);

  const AdmissionConfig& config() const { return config_; }

  /// Offer one arrival to an inlet queue; false = shed (queue at capacity).
  bool offer(int inlet, int tick, int type);

  bool has_waiting(int inlet) const { return !queues_[check(inlet)].empty(); }
  const PendingCell& head(int inlet) const;
  /// Head admitted: remove it and book the admission.
  void admit_head(int inlet);
  /// Head could not be admitted this tick; true on its FIRST deferral (the
  /// caller then audits one kAdmissionDeferred event for this cell).
  bool defer_head(int inlet);

  /// Effective chamber quota for a health rung.
  int quota(HealthState state) const;

  std::size_t queue_depth(int inlet) const { return queues_[check(inlet)].size(); }
  std::size_t total_queued() const;
  /// Book one tick of wait for every queued cell (call once per tick).
  void tick_waiting();

  const AdmissionStats& stats() const { return stats_; }
  /// Next arrival number (also: total arrivals offered so far).
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  std::size_t check(int inlet) const;

  AdmissionConfig config_;
  std::vector<std::deque<PendingCell>> queues_;
  AdmissionStats stats_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace biochip::control
