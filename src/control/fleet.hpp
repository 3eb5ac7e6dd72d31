#pragma once
/// \file fleet.hpp
/// \brief The chamber fleet both network drivers run on.
///
/// `Orchestrator` and `StreamingService` drive the same thing underneath:
/// one closed-loop control stack (`ClosedLoopEngine` + `EpisodeRuntime`)
/// per fluidic chamber, a runtime fault schedule applied serially between
/// ticks, and a barrier-synchronized chamber step that may fan out over a
/// worker pool. `ChamberFleet` is that shared part. The drivers keep what
/// differs: transfer arbitration, or arrivals, harvest and admission.
///
/// Determinism contract: chamber c draws every stream from
/// `chamber_streams.fork(c)` and the fault schedule draws from
/// `fault_stream`; the driver picks both (each driver documents its stream
/// layout). Chambers share no mutable state, so `step` is bitwise identical
/// for any worker count and chunking.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chip/cage.hpp"
#include "chip/defects.hpp"
#include "chip/fault_injector.hpp"
#include "common/rng.hpp"
#include "control/config.hpp"
#include "control/engine.hpp"
#include "fluidic/chamber_network.hpp"
#include "physics/dynamics.hpp"
#include "sensor/frame.hpp"

namespace biochip::core {
class ThreadPool;
}
namespace biochip::obs {
class TraceRecorder;
}

namespace biochip::control {

/// One chamber's chip world, owned by the caller. Chambers must not share
/// mutable state (each has its own controller / engine / defect map / body
/// array) — the same isolation rule as `ClosedLoopEngine::Episode`.
struct ChamberSetup {
  chip::CageController* cages = nullptr;
  core::ManipulationEngine* engine = nullptr;
  const sensor::FrameSynthesizer* imager = nullptr;
  const chip::DefectMap* defects = nullptr;
  std::vector<physics::ParticleBody>* bodies = nullptr;
  std::vector<std::pair<int, int>> cage_bodies;  ///< cage id → body index
  std::vector<CageGoal> goals;                   ///< intra-chamber deliveries
};

/// One control stack per network chamber, the runtime fault schedule, and
/// the chamber step.
class ChamberFleet {
 public:
  /// Throws `PreconditionError` unless `chambers` holds one complete setup
  /// (no null pointer) per network chamber, each on the chamber's site grid.
  /// The constructor runs it; a driver that reads the setups before it
  /// builds the fleet runs it first.
  static void check(const fluidic::ChamberNetwork& network,
                    const std::vector<ChamberSetup>& chambers);

  /// Checks `chambers`, then builds chamber c's control stack with delivery
  /// goals `goals[c]` on `chamber_streams.fork(c)`, and the fault schedule
  /// over the network's chambers and ports on `fault_stream`. The runtimes
  /// get no pool of their own: `step` owns the fan-out (nested parallel_for
  /// on one pool deadlocks), and per-body streams are counter-based, so
  /// this changes nothing bitwise.
  ChamberFleet(const fluidic::ChamberNetwork& network,
               std::vector<ChamberSetup>& chambers,
               const std::vector<std::vector<CageGoal>>& goals, double site_period,
               const ControlConfig& control, const chip::FaultScheduleConfig& faults,
               Rng chamber_streams, Rng fault_stream);

  /// Chamber c's runtime.
  EpisodeRuntime& operator[](std::size_t c) { return *runtimes_[c]; }

  /// True when every chamber's initial plan succeeded.
  bool planned() const;

  /// Every fault firing at tick t, in `chip::FaultInjector::tick` order
  /// (strictly increasing t across calls).
  std::vector<chip::FaultEvent> faults(int t) { return injector_.tick(t); }
  /// Applies an electrode or sensor fault to its chamber's world and
  /// returns true. Returns false and changes nothing for a port fault: port
  /// health belongs to the driver, which applies it in the same pass so the
  /// audit trails keep the schedule's order.
  bool apply(int t, const chip::FaultEvent& fault);
  /// Faults fired so far.
  std::size_t injected() const { return injector_.injected(); }

  /// Attach the timing plane to every chamber; chamber c records on lane c.
  void set_trace(obs::TraceRecorder* trace);

  /// One barrier-synchronized supervisory tick at t: chamber c runs
  /// `EpisodeRuntime::idle_tick` when `idle[c]` is set and a full `tick`
  /// otherwise. Fans out over `pool` (null = the serial reference).
  void step(int t, const std::vector<std::uint8_t>& idle, core::ThreadPool* pool);

 private:
  // Heap-held: a runtime keeps a reference to its engine.
  std::vector<std::unique_ptr<ClosedLoopEngine>> engines_;
  std::vector<std::unique_ptr<EpisodeRuntime>> runtimes_;
  chip::FaultInjector injector_;
};

}  // namespace biochip::control
