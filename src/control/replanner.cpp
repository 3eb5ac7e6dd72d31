#include "control/replanner.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biochip::control {

Replanner::Replanner(cad::RouteConfig config, const std::vector<std::uint8_t>& blocked)
    : config_(std::move(config)), sites_(config_, blocked) {}

void Replanner::commit(std::vector<cad::RoutedPath> paths) {
  paths_ = std::move(paths);
  for (const cad::RoutedPath& p : paths_)
    BIOCHIP_REQUIRE(!p.waypoints.empty(), "committed path has no waypoints");
}

bool Replanner::admit(const cad::RouteRequest& request, int t0) {
  BIOCHIP_REQUIRE(!has_path(request.id), "cage already has a committed path");
  auto fresh = cad::route_astar_reserved(request, config_, sites_, paths_, t0);
  if (!fresh) return false;
  paths_.push_back(std::move(*fresh));
  return true;
}

void Replanner::remove_path(int cage_id) {
  path(cage_id);  // validates
  paths_.erase(std::remove_if(paths_.begin(), paths_.end(),
                              [&](const cad::RoutedPath& p) { return p.id == cage_id; }),
               paths_.end());
}

bool Replanner::has_path(int cage_id) const {
  for (const cad::RoutedPath& p : paths_)
    if (p.id == cage_id) return true;
  return false;
}

cad::RoutedPath& Replanner::path(int cage_id) {
  for (cad::RoutedPath& p : paths_)
    if (p.id == cage_id) return p;
  throw PreconditionError("no committed path for cage " + std::to_string(cage_id));
}

const cad::RoutedPath& Replanner::path(int cage_id) const {
  return const_cast<Replanner*>(this)->path(cage_id);
}

GridCoord Replanner::position_at(int cage_id, int t) const {
  return path(cage_id).position_at(t);
}

bool Replanner::parked_after(int cage_id, int t) const {
  const cad::RoutedPath& p = path(cage_id);
  const GridCoord here = p.position_at(t);
  for (std::size_t s = static_cast<std::size_t>(std::max(t - p.start, 0));
       s < p.waypoints.size(); ++s)
    if (!(p.waypoints[s] == here)) return false;
  return true;
}

int Replanner::horizon() const {
  int h = 0;
  for (const cad::RoutedPath& p : paths_) h = std::max(h, p.last_step());
  return h;
}

void Replanner::hold(int cage_id, int t) {
  cad::RoutedPath& p = path(cage_id);
  const int rel = t - p.start;
  BIOCHIP_REQUIRE(rel >= 1, "cannot hold before the first step");
  if (p.waypoints.size() <= static_cast<std::size_t>(rel)) return;  // already parked
  p.waypoints.insert(p.waypoints.begin() + rel,
                     p.waypoints[static_cast<std::size_t>(rel) - 1]);
}

void Replanner::park(int cage_id, int t) {
  cad::RoutedPath& p = path(cage_id);
  const int rel = std::max(t - p.start, 0);
  if (p.waypoints.size() > static_cast<std::size_t>(rel) + 1)
    p.waypoints.resize(static_cast<std::size_t>(rel) + 1);
}

void Replanner::compact(int t) {
  // Keep position_at(s) exact for every s >= t-1 (`hold(t)` re-times against
  // the t-1 position); earlier history clamps to the first retained waypoint,
  // which only replans older than one tick would ever read — and the engine
  // never issues those.
  for (cad::RoutedPath& p : paths_) {
    int drop = (t - 1) - p.start;
    const int last = static_cast<int>(p.waypoints.size()) - 1;
    if (drop > last) drop = last;
    if (drop <= 0) continue;
    p.waypoints.erase(p.waypoints.begin(), p.waypoints.begin() + drop);
    p.start += drop;
  }
}

void Replanner::set_blocked(const std::vector<std::uint8_t>& blocked) {
  sites_ = cad::SiteComponents(config_, blocked);  // checks the mask's shape
}

void Replanner::set_rescue_blocked(const std::vector<std::uint8_t>& blocked) {
  rescue_sites_ = cad::SiteComponents(config_, blocked);  // checks the mask's shape
}

bool Replanner::replan(int cage_id, GridCoord to, int t_now) {
  return replan_under(sites_, cage_id, to, t_now);
}

bool Replanner::replan_relaxed(int cage_id, GridCoord to, int t_now) {
  BIOCHIP_REQUIRE(rescue_sites_.has_value(), "relaxed replans need rescue on");
  return replan_under(*rescue_sites_, cage_id, to, t_now);
}

bool Replanner::replan_under(const cad::SiteComponents& sites, int cage_id, GridCoord to,
                             int t_now) {
  cad::RoutedPath& own = path(cage_id);
  const GridCoord from = own.position_at(t_now);
  // The cage's own path rides along in paths_; the router skips it by id.
  const auto fresh =
      cad::route_astar_reserved({cage_id, from, to}, config_, sites, paths_, t_now);
  if (!fresh) return false;
  // Keep retained history up to t_now-1, then splice the new route (starts
  // at t_now). History older than the path's own start was compacted away
  // and stays away.
  const int base = std::min(own.start, t_now);
  std::vector<GridCoord> merged;
  merged.reserve(static_cast<std::size_t>(t_now - base) + fresh->waypoints.size());
  for (int t = base; t < t_now; ++t) merged.push_back(own.position_at(t));
  merged.insert(merged.end(), fresh->waypoints.begin(), fresh->waypoints.end());
  own.waypoints = std::move(merged);
  own.start = base;
  ++replans_;
  return true;
}

bool Replanner::enters_blocked_ahead(int cage_id, int t, int lookahead) const {
  const cad::RoutedPath& p = path(cage_id);
  for (int s = t + 1; s <= t + lookahead; ++s)
    if (sites_.blocked(p.position_at(s))) return true;
  return false;
}

}  // namespace biochip::control
