#include "cad/synthesis.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace biochip::cad {

namespace {

/// Shift a coordinate until it is min_sep-clear of the ones already used in
/// the episode (packets sharing a module: split sources, mix destinations).
GridCoord deoverlap(GridCoord want, const std::vector<GridCoord>& used,
                    const SynthesisConfig& config) {
  GridCoord c = want;
  auto clashes = [&](GridCoord p) {
    for (const GridCoord u : used)
      if (chebyshev(p, u) < config.min_separation) return true;
    return false;
  };
  int attempt = 0;
  static constexpr GridCoord kOffsets[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  while (clashes(c)) {
    const GridCoord dir = kOffsets[attempt % 4];
    const int mag = config.min_separation * (attempt / 4 + 1);
    c = {want.col + dir.col * mag, want.row + dir.row * mag};
    c.col = std::clamp(c.col, 0, config.dims.cols - 1);
    c.row = std::clamp(c.row, 0, config.dims.rows - 1);
    if (++attempt > 64) break;  // give up; router will report the conflict
  }
  return c;
}

}  // namespace

SynthesisResult synthesize(const AssayGraph& graph, const SynthesisConfig& config) {
  graph.validate();
  SynthesisResult result;
  result.success = true;

  // 1. Schedule.
  result.schedule = config.list_scheduler ? list_schedule(graph, config.resources)
                                          : fifo_schedule(graph, config.resources);
  check_schedule(graph, result.schedule, config.resources);
  result.processing_makespan = result.schedule.makespan;

  // 2. Place.
  const PlacerConfig pcfg{config.dims};  // default module size and halo
  result.placement = greedy_place(graph, result.schedule, pcfg);
  if (!result.placement.valid) {
    result.success = false;
    for (const std::string& s : result.placement.issues)
      result.issues.push_back("placement: " + s);
    return result;  // no geometry to route against
  }
  check_placement(graph, result.schedule, result.placement, pcfg);

  // 3. Route: group data edges into simultaneous-departure episodes.
  std::map<long long, std::vector<std::pair<int, int>>> by_departure;  // µs-quantized
  for (const Operation& o : graph.operations())
    for (int in : o.inputs) {
      const double depart = result.schedule.at(in).end;
      by_departure[static_cast<long long>(std::llround(depart * 1e6))].push_back(
          {in, o.id});
    }

  int next_transfer_id = 0;
  for (const auto& [quantized, edges] : by_departure) {
    TransferEpisode episode;
    episode.depart = static_cast<double>(quantized) * 1e-6;

    std::vector<GridCoord> used_sources, used_dests;
    for (const auto& [producer, consumer] : edges) {
      RouteRequest req;
      req.id = next_transfer_id++;
      req.from = deoverlap(result.placement.at(producer).center(), used_sources, config);
      req.to = deoverlap(result.placement.at(consumer).center(), used_dests, config);
      used_sources.push_back(req.from);
      used_dests.push_back(req.to);
      episode.transfers.push_back(req);
    }

    // Obstacles: modules of operations running at the departure instant that
    // are not endpoints of this episode.
    RouteConfig rcfg;
    rcfg.cols = config.dims.cols;
    rcfg.rows = config.dims.rows;
    rcfg.min_separation = config.min_separation;
    for (const Operation& o : graph.operations()) {
      const ScheduledOp& so = result.schedule.at(o.id);
      if (!(so.start < episode.depart - 1e-9 && so.end > episode.depart + 1e-9)) continue;
      bool endpoint = false;
      for (const auto& [producer, consumer] : edges)
        if (o.id == producer || o.id == consumer) endpoint = true;
      if (endpoint) continue;
      const PlacedModule& m = result.placement.at(o.id);
      rcfg.obstacles.push_back({m.origin, m.width, m.height});
    }

    episode.routes = route_astar(episode.transfers, rcfg);
    if (!episode.routes.success) {
      result.success = false;
      result.issues.push_back("routing failed for " +
                              std::to_string(episode.routes.failed_ids.size()) +
                              " transfer(s) departing at t=" +
                              std::to_string(episode.depart));
    } else {
      verify_routes(episode.transfers, episode.routes, rcfg);
    }
    result.transport_steps += static_cast<std::size_t>(episode.routes.makespan_steps);
    result.transport_moves += episode.routes.total_moves;
    result.episodes.push_back(std::move(episode));
  }

  result.transport_time = static_cast<double>(result.transport_steps) * config.step_period;
  result.total_time = result.processing_makespan + result.transport_time;
  return result;
}

}  // namespace biochip::cad
