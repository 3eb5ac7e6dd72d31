#pragma once
/// \file synthesis.hpp
/// \brief End-to-end assay synthesis: schedule → place → route.
///
/// The output binds every operation to a time slot and array region and
/// every data edge to a collision-free cage route. Total assay time =
/// processing makespan + transport time, where each transfer episode's step
/// count is multiplied by the physical actuation step period (pitch / tow
/// speed — mass transfer, not electronics, is the clock here: claim C3).

#include <string>
#include <vector>

#include "cad/assay.hpp"
#include "cad/place.hpp"
#include "cad/route.hpp"
#include "cad/schedule.hpp"

namespace biochip::cad {

/// Placement is greedy, with `PlacerConfig`'s default module size and halo,
/// and routing is A*; `annealed_place` and `route_greedy` stay callable on
/// their own.
struct SynthesisConfig {
  ArrayDims dims{64, 64};
  ChipResources resources;
  int min_separation = 2;
  double step_period = 0.4;   ///< s per cage step (20 µm / 50 µm/s)
  bool list_scheduler = true; ///< false = FIFO baseline
};

/// One simultaneous-transfer routing episode (all edges departing together).
struct TransferEpisode {
  double depart = 0.0;  ///< schedule time at which the packets leave
  std::vector<RouteRequest> transfers;
  RouteResult routes;
};

struct SynthesisResult {
  bool success = false;
  std::vector<std::string> issues;
  Schedule schedule;
  Placement placement;
  std::vector<TransferEpisode> episodes;
  std::size_t transport_steps = 0;  ///< summed episode makespans [steps]
  std::size_t transport_moves = 0;  ///< summed cage moves
  double processing_makespan = 0.0; ///< schedule makespan [s]
  double transport_time = 0.0;      ///< steps × step_period [s]
  double total_time = 0.0;          ///< processing + transport [s]
};

/// Run the full flow. Never throws on capacity/congestion failures — these
/// are reported via `success`/`issues` so benches can chart feasibility
/// boundaries; configuration errors (malformed graph) still throw.
SynthesisResult synthesize(const AssayGraph& graph, const SynthesisConfig& config);

}  // namespace biochip::cad
