#pragma once
/// \file route.hpp
/// \brief Collision-free multi-cage routing on the site grid.
///
/// Cages carry cells between modules. Per actuation step a cage moves one
/// site (4-neighbourhood) or stays; any two cages must keep Chebyshev
/// distance >= min_separation at *every* step or their traps merge (the
/// fluidic constraint of DMFB routing, adapted to DEP cages). Routers:
///  * `route_greedy` — each cage steps toward its target, stalling when
///    blocked; cheap, prone to gridlock (the baseline);
///  * `route_astar` — prioritized planning: time-expanded A* per cage
///    against a reservation table of previously committed paths.
/// Every A* entry point takes the grid's passability from a `SiteComponents`,
/// which also answers its static reachability precheck; an owner that keeps
/// one across searches passes it in, and `route_astar(requests, config)`
/// builds one from `config` for the call.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.hpp"

namespace biochip::cad {

/// One cage transfer request (all requests start simultaneously at t=0).
struct RouteRequest {
  int id = 0;
  GridCoord from;
  GridCoord to;
};

/// Static obstacle (an active module region cages must not enter).
struct RouteObstacle {
  GridCoord origin;
  int width = 0;
  int height = 0;

  bool contains(GridCoord c) const {
    return c.col >= origin.col && c.col < origin.col + width && c.row >= origin.row &&
           c.row < origin.row + height;
  }
};

struct RouteConfig {
  int cols = 0;
  int rows = 0;
  int min_separation = 2;  ///< Chebyshev cage spacing
  int max_steps = 0;       ///< 0 = auto horizon
  std::vector<RouteObstacle> obstacles;
  /// Per-site blocked mask, row-major (row * cols + col); empty = nothing
  /// blocked. Built e.g. from `chip::blocked_site_mask` (defective sites a
  /// cage must never traverse — the trap cannot hold there). Both routers
  /// refuse to ENTER a blocked site: a path may start on one (the cage can
  /// leave), but a blocked destination makes the request unroutable.
  std::vector<std::uint8_t> blocked;

  bool is_blocked(GridCoord c) const {
    return !blocked.empty() &&
           blocked[static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols) +
                   static_cast<std::size_t>(c.col)] != 0;
  }
};

/// Per-cage routed path: position at each step t = start..start+makespan
/// (inclusive; cages park at their destination once arrived).
struct RoutedPath {
  int id = 0;
  std::vector<GridCoord> waypoints;
  /// Absolute step of `waypoints[0]`. Batch plans use 0; paths committed
  /// mid-run (hand-off admissions) or compacted by a streaming replanner
  /// carry the tick their first retained waypoint belongs to, so indefinite
  /// runs keep O(horizon) waypoints instead of O(elapsed ticks).
  int start = 0;

  /// Position at absolute step t, clamped into the waypoint range: a path
  /// holds its first waypoint before `start` and parks at its final waypoint
  /// forever after. This is THE parking rule every reservation-table check
  /// (planning, replanning, verification, execution) indexes time with —
  /// keep it single-sourced. An empty path has no position and returns {}.
  GridCoord position_at(int t) const {
    if (waypoints.empty()) return {};
    const int rel = t - start;
    std::size_t idx = static_cast<std::size_t>(rel < 0 ? 0 : rel);
    if (idx >= waypoints.size()) idx = waypoints.size() - 1;
    return waypoints[idx];
  }

  /// Last absolute step at which the path can still move.
  int last_step() const {
    return start + (waypoints.empty() ? 0 : static_cast<int>(waypoints.size()) - 1);
  }
};

struct RouteResult {
  bool success = false;
  int makespan_steps = 0;      ///< steps until the last cage arrives
  std::size_t total_moves = 0; ///< site-to-site moves (excludes stalls)
  std::vector<RoutedPath> paths;
  std::vector<int> failed_ids; ///< requests that could not be routed
};

/// The sites of a routing grid under one blocked mask: each site is blocked,
/// an obstacle (inside some `RouteObstacle`, not blocked) or free, and the
/// free sites carry the label of their 4-connected component. The A* reads
/// its passability here, and its static reachability precheck becomes a few
/// label comparisons instead of a flood over the grid. Built in one scanline
/// union-find pass (the sequential labelling of Rosenfeld & Pfaltz,
/// "Sequential operations in digital picture processing", J. ACM 13(4),
/// 1966), so an owner that keeps its mask across many searches rebuilds this
/// only when the mask changes.
class SiteComponents {
 public:
  /// Classify and label `config`'s grid with `config.obstacles` and
  /// `blocked` (row-major; empty = nothing blocked) — `config.blocked` is not
  /// read, so one config can carry different masks.
  SiteComponents(const RouteConfig& config, const std::vector<std::uint8_t>& blocked);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  bool blocked(GridCoord c) const { return label(c) == kBlocked; }
  bool obstacle(GridCoord c) const { return label(c) == kObstacle; }

  /// Static (time-free) reachability under the routers' passability rules: a
  /// path may leave a blocked or obstacle `from` and may end inside an
  /// obstacle, but never enters a blocked site. Exactly a flood from `from`:
  /// `from == to` is reachable; otherwise a blocked `to` is not, an adjacent
  /// `to` is, and any other `to` is iff a free neighbour of `from` and a free
  /// neighbour of `to` share a component. A relaxed superset of the
  /// time-expanded search space: unreachable here means no path at all.
  bool reachable(GridCoord from, GridCoord to) const;

 private:
  static constexpr std::int32_t kObstacle = -1;
  static constexpr std::int32_t kBlocked = -2;

  std::int32_t label(GridCoord c) const {
    return labels_[static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_) +
                   static_cast<std::size_t>(c.col)];
  }

  int cols_ = 0;
  int rows_ = 0;
  std::vector<std::int32_t> labels_;  ///< component id (>= 0), kObstacle or kBlocked
};

RouteResult route_greedy(const std::vector<RouteRequest>& requests,
                         const RouteConfig& config);

/// Builds `config`'s `SiteComponents` for the one call.
RouteResult route_astar(const std::vector<RouteRequest>& requests,
                        const RouteConfig& config);

/// The same planner with the grid's sites supplied by their owner: `sites`
/// stands in for `config.obstacles` and `config.blocked` (build it from
/// `config` and the mask in force); `config` gives the grid, separation and
/// horizon.
RouteResult route_astar(const std::vector<RouteRequest>& requests,
                        const RouteConfig& config, const SiteComponents& sites);

/// Incremental re-routing entry point for closed-loop supervision: plan ONE
/// cage through a reservation table of already-committed paths, starting at
/// absolute step `t0` (the cage sits at `request.from` at t0), under the
/// owner's `sites` (as for `route_astar`). `committed` paths are indexed in
/// the same absolute time frame (waypoint t of each path is its position at
/// step t; paths park at their last waypoint), so a supervisor can keep
/// every still-valid plan live and re-plan only the deviating cage. A
/// committed path carrying `request.id` is the cage's own and reserves
/// nothing (nor counts toward the auto horizon), so an owner of the plan can
/// pass it whole. Returns the new path as positions at t0, t0+1, ... (with
/// `start = t0`, so `position_at` works in the same absolute frame) or
/// nullopt when no conflict-free path exists within the horizon.
std::optional<RoutedPath> route_astar_reserved(const RouteRequest& request,
                                               const RouteConfig& config,
                                               const SiteComponents& sites,
                                               const std::vector<RoutedPath>& committed,
                                               int t0);

/// Verify a result against the constraints (endpoints, unit steps, pairwise
/// separation at every t, obstacle avoidance); throws on violation.
void verify_routes(const std::vector<RouteRequest>& requests, const RouteResult& result,
                   const RouteConfig& config);

}  // namespace biochip::cad
