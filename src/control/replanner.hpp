#pragma once
/// \file replanner.hpp
/// \brief Online route maintenance for the closed-loop supervisor.
///
/// The replanner owns the committed multi-cage plan as absolute-time paths
/// (waypoint t = position at supervisory tick t; paths park at their last
/// waypoint) and keeps it consistent with reality tick by tick:
///  * `hold` re-times a path when its cage stalled for one step (the rest of
///    the plan survives, one step later);
///  * `park` freezes a cage in place (a paused tow);
///  * `replan` routes one cage to a new target through the reservation table
///    of every other committed path (`cad::route_astar_reserved`), never
///    entering a blocked (defective or quarantined) site;
///  * `replan_relaxed` does the same under the rescue sites;
///  * `admit` routes and commits a cage handed in mid-episode.
/// It owns the site labels it routes on (`cad::SiteComponents`): the strict
/// sites of the belief mask and, with rescue on, the ring-0 rescue sites.
/// Each set is built from the mask its owner hands in and rebuilt only when
/// that mask changes; no mask is kept, so no search copies one or re-scans
/// the grid. The invariant the engine relies on: after each tick's
/// bookkeeping, `position_at(id, t)` equals the cage's physical site.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cad/route.hpp"
#include "common/geometry.hpp"

namespace biochip::control {

class Replanner {
 public:
  /// `config` gives the grid, separation and horizon of every route. The
  /// strict sites are `config`'s grid under `blocked` (row-major; empty =
  /// nothing blocked); as in every router entry that takes sites, they stand
  /// in for `config.blocked`, which is not read.
  Replanner(cad::RouteConfig config, const std::vector<std::uint8_t>& blocked);

  /// The strict sites every replan and admission routes under (the
  /// defect-aware initial plan routes under them too).
  const cad::SiteComponents& sites() const { return sites_; }

  /// Rebuild the strict sites from a new blocked mask (runtime fault
  /// injection or a health quarantine changed it). Committed paths are left
  /// untouched — the supervisor's defect lookahead reroutes them.
  void set_blocked(const std::vector<std::uint8_t>& blocked);

  /// Build (or rebuild) the rescue sites from their mask — the belief map's
  /// ring-0 sites, which an empty rescue cage may traverse. The first call
  /// turns rescue on.
  void set_rescue_blocked(const std::vector<std::uint8_t>& blocked);
  bool rescue_enabled() const { return rescue_sites_.has_value(); }

  /// Install the committed plan (absolute time frame, t = 0 = episode start).
  void commit(std::vector<cad::RoutedPath> paths);
  const std::vector<cad::RoutedPath>& paths() const { return paths_; }
  bool has_path(int cage_id) const;

  /// Route a cage admitted mid-episode (a cross-chamber handoff) from
  /// `request.from` at tick `t0` to `request.to` through every committed
  /// path, under the committed mask, and commit the route. `request.id` must
  /// not have a path yet. Returns false (nothing committed) when no
  /// conflict-free route exists.
  bool admit(const cad::RouteRequest& request, int t0);

  /// Drop a cage's committed path (the cage left this chamber). Its
  /// reservation disappears with it.
  void remove_path(int cage_id);

  /// Position of a cage's committed path at tick t (parks at the end).
  GridCoord position_at(int cage_id, int t) const;
  /// True when the path never moves again after tick t.
  bool parked_after(int cage_id, int t) const;
  /// Last tick at which any committed path still moves.
  int horizon() const;

  /// Drop waypoint history older than tick t-1 from every committed path
  /// (each path's `start` advances to compensate, so `position_at(s)` is
  /// unchanged for every s >= t-1). Streaming drivers call this once per
  /// tick to keep an indefinite run's plan memory O(horizon) instead of
  /// O(elapsed ticks); episode drivers never need to.
  void compact(int t);

  /// Re-time a stalled cage: insert a one-step hold at tick t (the cage kept
  /// its previous site; the remaining plan shifts one step later).
  void hold(int cage_id, int t);

  /// Freeze a cage at its tick-t position (pause tow); drops the rest of its
  /// committed path.
  void park(int cage_id, int t);

  /// Re-route one cage from its tick-`t_now` position to `to`, against the
  /// reservation table of every other committed path. On success the cage's
  /// path becomes [old positions up to t_now-1] + [new route]; returns false
  /// (path untouched) when the router finds no conflict-free route.
  bool replan(int cage_id, GridCoord to, int t_now);

  /// `replan` under the rescue sites instead of the strict ones (rescue
  /// maneuvers route an empty cage through ring-defective sites).
  /// Reservations of every other committed path still apply. Needs rescue on.
  bool replan_relaxed(int cage_id, GridCoord to, int t_now);

  /// True when any of the path steps in (t, t + lookahead] enters a site
  /// blocked in the strict sites — the defect lookahead trigger.
  bool enters_blocked_ahead(int cage_id, int t, int lookahead) const;

  /// Total successful replans (report bookkeeping).
  std::size_t replans() const { return replans_; }

 private:
  cad::RoutedPath& path(int cage_id);
  const cad::RoutedPath& path(int cage_id) const;
  bool replan_under(const cad::SiteComponents& sites, int cage_id, GridCoord to, int t_now);

  cad::RouteConfig config_;    ///< grid, separation and horizon
  cad::SiteComponents sites_;  ///< strict sites of the belief mask
  std::optional<cad::SiteComponents> rescue_sites_;  ///< ring-0 sites; rescue on
  std::vector<cad::RoutedPath> paths_;
  std::size_t replans_ = 0;
};

}  // namespace biochip::control
