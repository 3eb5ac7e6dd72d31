#pragma once
/// \file orchestrator.hpp
/// \brief Multi-chamber orchestration: per-chamber supervisors + shared
/// transfer arbitration.
///
/// The paper's chip is a multi-site lab-on-chip: several microchambers share
/// the die and cells move between them through microfluidic channels. The
/// orchestrator scales the closed loop to that shape: one full control stack
/// (`Supervisor` + `OccupancyTracker` + `Replanner`, held by an
/// `EpisodeRuntime`) runs **per fluidic chamber** in a `ChamberFleet`,
/// chambers tick concurrently on the worker pool, and a serial arbitration
/// pass between ticks turns cross-chamber transfers into typed route
/// *requests* between supervisors:
///
///   1. the source chamber's supervisor tows the cage to its transfer-port
///      site like any other delivery;
///   2. arrival raises a `TransferRequest` (`EventKind::kTransferRequested`);
///   3. the destination chamber decides admission: the port neighborhood
///      must be defect-usable, physically clear, unreserved, and
///      `cad::route_astar_reserved` must find a conflict-free route to the
///      final goal through the destination's OWN reservation table —
///      otherwise the request is denied (`kTransferDenied`) and retried
///      after a backoff, or failed permanently when the port is
///      defect-blocked;
///   4. on admission (`kTransferAdmitted`) the cage + cell leave the source
///      episode (`EpisodeRuntime::release_cage`) and join the destination
///      (`admit_cage`), which supervises the final delivery leg.
///
/// Determinism contract: chamber c draws every stream from
/// `stream_base.fork(c)` — disjoint per-chamber stream spaces — and the
/// fault schedule from `stream_base.fork(n_chambers)`; chamber ticks are
/// barrier-synchronized, and arbitration runs serially in ascending transfer
/// order, so a multi-chamber episode is **bitwise identical** for any worker
/// count and chunking (pass `max_parts = 1` for the serial reference).

#include <cstdint>
#include <vector>

#include "chip/defects.hpp"
#include "chip/fault_injector.hpp"
#include "common/rng.hpp"
#include "control/config.hpp"
#include "control/engine.hpp"
#include "control/fleet.hpp"
#include "control/health.hpp"
#include "fluidic/chamber_network.hpp"

namespace biochip::core {
class ThreadPool;
}
namespace biochip::obs {
class Observer;
}

namespace biochip::control {

/// One cross-chamber delivery: the cage starts in `from_chamber` and must
/// end at `destination` in `to_chamber`, handed through the network port
/// connecting the two.
struct TransferGoal {
  int from_chamber = 0;
  int cage_id = 0;  ///< id in the source chamber's controller
  int to_chamber = 0;
  GridCoord destination;  ///< final site in the destination chamber (must lie
                          ///< in its grid; `Orchestrator::run` throws otherwise)
};

/// Lifecycle of one transfer.
enum class TransferPhase : std::uint8_t {
  kQueued,             ///< staged: an earlier transfer holds the same source port
  kTowingToPort,       ///< source supervisor tows the cage to its port site
  kAwaitingAdmission,  ///< at the port; destination has not admitted yet
  kInDestination,      ///< admitted; destination supervises the final leg
  kDelivered,          ///< ground-truth delivered at the final goal
  kFailed,             ///< explicit failure (blocked port, deadline, lost cell)
};

const char* to_string(TransferPhase phase);

/// Per-transfer outcome (indexed like the input `TransferGoal` list).
struct TransferOutcome {
  TransferPhase phase = TransferPhase::kTowingToPort;
  int dest_cage_id = -1;  ///< cage id in the destination chamber (once admitted)
  int requests = 0;       ///< admission attempts (first + backoff retries)
  int denials = 0;        ///< denied attempts
  int handoff_tick = -1;  ///< tick of the admission, -1 = never admitted
  int port_id = -1;       ///< network port the transfer last used
  int reroutes = 0;       ///< escalations to an alternate port
  bool timed_out = false; ///< failed on its admission deadline
};

struct OrchestratorConfig {
  /// Per-chamber control config (`closed_loop = false` = open-loop baseline:
  /// blind plans, blind hand-offs at the port, no recovery).
  ControlConfig control;
  double site_period = 0.4;  ///< [s] per supervisory tick
  /// Base ticks between admission retries after a denial. Consecutive
  /// denials double the wait (capped below) — a congested or degraded
  /// destination is not hammered every backoff period.
  int transfer_backoff = 4;
  /// Cap of the exponential admission backoff [ticks].
  int max_transfer_backoff = 32;
  /// Consecutive denials at one port before a transfer escalates to an
  /// alternate port of the same chamber pair (closed loop; 0 = never).
  int escalate_after_denials = 3;
  /// Admission deadline: ticks a transfer may sit at a port awaiting
  /// admission before it fails explicitly (`kTransferTimedOut`). The timer
  /// restarts when an escalation re-tows to another port. 0 = no deadline.
  int transfer_deadline = 0;
  /// Global tick budget; 0 = auto (chamber budgets + per-transfer slack).
  int max_ticks = 0;
  /// Deterministic runtime fault schedule (scripted + Poisson arrivals),
  /// applied serially before each tick's chamber fan-out. Empty = none.
  chip::FaultScheduleConfig faults;
  /// Ports already failed permanently at episode start (soak carry-over).
  std::vector<int> failed_ports;
  /// Skip the full sense/track/supervise tick of chambers that are finished
  /// (all goals delivered) and referenced by no active transfer. The elided
  /// chamber's world freezes; health observation still runs every tick, so
  /// ladder decisions are tick-exact (see docs/robustness.md for the exact
  /// equivalence contract).
  bool elide_idle_chambers = false;
};

struct OrchestratorReport {
  bool planned = false;  ///< every chamber's initial plan succeeded
  int ticks = 0;         ///< global supervisory ticks executed
  std::size_t transfer_requests = 0;  ///< transfers that reached their port
  std::size_t admissions = 0;
  std::size_t denials = 0;
  std::size_t reroutes = 0;  ///< port escalations across all transfers
  std::size_t timeouts = 0;  ///< transfers failed on their deadline
  /// Per-chamber episode reports (intra-chamber accounting; transfer legs
  /// are accounted globally below, not double-counted here).
  std::vector<EpisodeReport> chambers;
  std::vector<TransferOutcome> transfers;  ///< one per TransferGoal, in order
  std::vector<std::size_t> delivered_transfers;  ///< indices into `transfers`
  std::vector<std::size_t> failed_transfers;     ///< every transfer lands in one
  /// Exact injection schedule this episode executed (ground truth for the
  /// injected-vs-observed accounting in tests).
  std::vector<chip::FaultEvent> injected_faults;
  std::vector<int> failed_ports;  ///< permanently failed ports at episode end
  /// Per-chamber final state for soak carry-over: the ground-truth defect
  /// map (the next service's self-test announces it) and the health rung.
  std::vector<chip::DefectMap> final_truth_defects;
  std::vector<HealthState> health;
  std::size_t elided_chamber_ticks = 0;  ///< chamber-ticks skipped by elision
};

/// Drives one multi-chamber episode over a `fluidic::ChamberNetwork`.
class Orchestrator {
 public:
  Orchestrator(const fluidic::ChamberNetwork& network, OrchestratorConfig config);

  const OrchestratorConfig& config() const { return config_; }
  const fluidic::ChamberNetwork& network() const { return network_; }

  /// Run one orchestrated episode: `chambers[c]` is the world of network
  /// chamber c (site grids must match the topology), `transfers` the
  /// cross-chamber goals. Chamber ticks fan out over `pool` (null = serial)
  /// in at most `max_parts` chunks (1 = serial reference); results are
  /// bitwise identical for any choice.
  OrchestratorReport run(std::vector<ChamberSetup>& chambers,
                         const std::vector<TransferGoal>& transfers, Rng stream_base,
                         core::ThreadPool* pool, std::size_t max_parts = 0);

  /// Attach a telemetry observer for subsequent `run` calls (null = off).
  /// Counting-plane folds run in the serial arbitration sections only, so
  /// telemetry cannot perturb the report or the bitwise identity contract.
  void set_observer(obs::Observer* obs) { obs_ = obs; }

 private:
  const fluidic::ChamberNetwork& network_;
  OrchestratorConfig config_;
  obs::Observer* obs_ = nullptr;
};

}  // namespace biochip::control
