#include "cad/route.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>

#include "common/error.hpp"

namespace biochip::cad {

namespace {

int auto_horizon(const RouteConfig& config, std::size_t n_requests) {
  return 3 * (config.cols + config.rows) + 8 * static_cast<int>(n_requests) + 20;
}

// Entry-point contract shared by every router: non-degenerate grid, and a
// blocked mask (when present) sized for it — is_blocked indexes the mask
// unchecked on the hot path.
void check_config(const RouteConfig& config) {
  BIOCHIP_REQUIRE(config.cols >= 1 && config.rows >= 1, "routing grid must be non-empty");
  BIOCHIP_REQUIRE(config.blocked.empty() ||
                      config.blocked.size() ==
                          static_cast<std::size_t>(config.cols) *
                              static_cast<std::size_t>(config.rows),
                  "blocked mask size does not match the routing grid");
}

// Entry-point contract of the routers that take their sites from an owner:
// a non-degenerate grid the sites were built for.
void check_sites(const RouteConfig& config, const SiteComponents& sites) {
  BIOCHIP_REQUIRE(config.cols >= 1 && config.rows >= 1, "routing grid must be non-empty");
  BIOCHIP_REQUIRE(sites.cols() == config.cols && sites.rows() == config.rows,
                  "site components do not match the routing grid");
}

bool in_bounds(const RouteConfig& config, GridCoord c) {
  return c.col >= 0 && c.col < config.cols && c.row >= 0 && c.row < config.rows;
}

bool hits_obstacle(const RouteConfig& config, GridCoord c) {
  for (const RouteObstacle& ob : config.obstacles)
    if (ob.contains(c)) return true;
  return false;
}

std::size_t count_moves(const RoutedPath& path) {
  std::size_t moves = 0;
  for (std::size_t t = 1; t < path.waypoints.size(); ++t)
    if (!(path.waypoints[t] == path.waypoints[t - 1])) ++moves;
  return moves;
}

void finalize(RouteResult& result) {
  result.makespan_steps = 0;
  result.total_moves = 0;
  for (const RoutedPath& p : result.paths) {
    result.makespan_steps =
        std::max(result.makespan_steps, static_cast<int>(p.waypoints.size()) - 1);
    result.total_moves += count_moves(p);
  }
}

}  // namespace

RouteResult route_greedy(const std::vector<RouteRequest>& requests,
                         const RouteConfig& config) {
  check_config(config);
  const int horizon = config.max_steps > 0 ? config.max_steps
                                           : auto_horizon(config, requests.size());
  const std::size_t n = requests.size();
  RouteResult result;
  result.paths.resize(n);
  std::vector<GridCoord> pos(n);
  std::vector<std::uint8_t> arrived(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = requests[i].from;
    result.paths[i] = {requests[i].id, {requests[i].from}};
    arrived[i] = (requests[i].from == requests[i].to) ? 1 : 0;
  }

  int stall_rounds = 0;
  for (int t = 0; t < horizon; ++t) {
    if (std::all_of(arrived.begin(), arrived.end(), [](auto a) { return a != 0; })) break;
    std::vector<GridCoord> next = pos;
    bool any_movement = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (arrived[i]) continue;
      // Candidate moves ordered by distance-to-target improvement; stay last.
      const GridCoord cur = pos[i];
      const GridCoord tgt = requests[i].to;
      std::vector<GridCoord> candidates = {{cur.col + 1, cur.row},
                                           {cur.col - 1, cur.row},
                                           {cur.col, cur.row + 1},
                                           {cur.col, cur.row - 1}};
      std::sort(candidates.begin(), candidates.end(), [&](GridCoord a, GridCoord b) {
        return manhattan(a, tgt) < manhattan(b, tgt);
      });
      candidates.push_back(cur);  // stalling is always a fallback
      for (const GridCoord cand : candidates) {
        if (!(cand == cur)) {
          if (manhattan(cand, tgt) >= manhattan(cur, tgt)) continue;  // no detours
          if (!in_bounds(config, cand) || hits_obstacle(config, cand)) continue;
          if (config.is_blocked(cand)) continue;  // never enter a defective site
        }
        bool clash = false;
        for (std::size_t j = 0; j < n && !clash; ++j) {
          if (j == i) continue;
          // Cages processed earlier this step are at next[j], later at pos[j].
          const GridCoord other = (j < i) ? next[j] : pos[j];
          if (chebyshev(cand, other) < config.min_separation) clash = true;
        }
        if (clash) continue;
        next[i] = cand;
        if (!(cand == cur)) any_movement = true;
        break;
      }
    }
    pos = next;
    for (std::size_t i = 0; i < n; ++i) {
      result.paths[i].waypoints.push_back(pos[i]);
      if (pos[i] == requests[i].to) arrived[i] = 1;
    }
    stall_rounds = any_movement ? 0 : stall_rounds + 1;
    if (stall_rounds >= 8) break;  // gridlock: nobody can improve
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!arrived[i]) result.failed_ids.push_back(requests[i].id);
    // Trim the parked tail so makespan reflects the true arrival.
    auto& wp = result.paths[i].waypoints;
    while (wp.size() >= 2 && wp.back() == wp[wp.size() - 2]) wp.pop_back();
  }
  result.success = result.failed_ids.empty();
  finalize(result);
  return result;
}

SiteComponents::SiteComponents(const RouteConfig& config,
                               const std::vector<std::uint8_t>& blocked)
    : cols_(config.cols), rows_(config.rows) {
  BIOCHIP_REQUIRE(cols_ >= 1 && rows_ >= 1, "routing grid must be non-empty");
  const auto cols = static_cast<std::size_t>(cols_);
  const auto rows = static_cast<std::size_t>(rows_);
  BIOCHIP_REQUIRE(blocked.empty() || blocked.size() == cols * rows,
                  "blocked mask size does not match the routing grid");
  labels_.assign(cols * rows, 0);
  for (const RouteObstacle& ob : config.obstacles) {
    const int c0 = std::max(ob.origin.col, 0);
    const int c1 = std::min(ob.origin.col + ob.width, cols_);
    const int r0 = std::max(ob.origin.row, 0);
    const int r1 = std::min(ob.origin.row + ob.height, rows_);
    for (int r = r0; r < r1; ++r)
      for (int c = c0; c < c1; ++c) labels_[static_cast<std::size_t>(r) * cols +
                                            static_cast<std::size_t>(c)] = kObstacle;
  }

  // Raster scan: a free site takes its left or upper neighbour's provisional
  // label (a fresh one when neither is free) and unites the two when both
  // are. Every root is the smallest label of its set, so parent[l] <= l.
  std::vector<std::int32_t> parent;
  const auto up_of = [&](std::int32_t l) -> std::int32_t& {
    return parent[static_cast<std::size_t>(l)];
  };
  const auto find = [&](std::int32_t a) {
    while (up_of(a) != a) {
      up_of(a) = up_of(up_of(a));  // path halving
      a = up_of(a);
    }
    return a;
  };
  const auto unite = [&](std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a < b) up_of(b) = a;
    if (b < a) up_of(a) = b;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    std::int32_t* row = labels_.data() + r * cols;
    const std::int32_t* up = r > 0 ? row - cols : nullptr;
    const std::uint8_t* mask = blocked.empty() ? nullptr : blocked.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (mask != nullptr && mask[c] != 0) {
        row[c] = kBlocked;
        continue;
      }
      if (row[c] == kObstacle) continue;
      const std::int32_t left = c > 0 ? row[c - 1] : -1;
      const std::int32_t above = up != nullptr ? up[c] : -1;
      if (left >= 0) {
        row[c] = left;
        if (above >= 0 && above != left) unite(left, above);
      } else if (above >= 0) {
        row[c] = above;
      } else {
        row[c] = static_cast<std::int32_t>(parent.size());
        parent.push_back(row[c]);
      }
    }
  }
  // One forward pass resolves every label to its root (parents come first).
  for (std::int32_t& p : parent) p = up_of(p);
  for (std::int32_t& l : labels_)
    if (l >= 0) l = up_of(l);
}

bool SiteComponents::reachable(GridCoord from, GridCoord to) const {
  BIOCHIP_REQUIRE(from.col >= 0 && from.col < cols_ && from.row >= 0 && from.row < rows_ &&
                      to.col >= 0 && to.col < cols_ && to.row >= 0 && to.row < rows_,
                  "route endpoints outside the grid");
  if (from == to) return true;
  if (blocked(to)) return false;
  if (manhattan(from, to) == 1) return true;
  const auto free_neighbours = [&](GridCoord c, std::int32_t (&out)[4]) {
    int n = 0;
    const GridCoord nbs[4] = {{c.col + 1, c.row},
                              {c.col - 1, c.row},
                              {c.col, c.row + 1},
                              {c.col, c.row - 1}};
    for (const GridCoord nb : nbs) {
      if (nb.col < 0 || nb.col >= cols_ || nb.row < 0 || nb.row >= rows_) continue;
      const std::int32_t l = label(nb);
      if (l >= 0) out[n++] = l;
    }
    return n;
  };
  std::int32_t near_from[4];
  std::int32_t near_to[4];
  const int nf = free_neighbours(from, near_from);
  const int nt = free_neighbours(to, near_to);
  for (int a = 0; a < nf; ++a)
    for (int b = 0; b < nt; ++b)
      if (near_from[a] == near_to[b]) return true;
  return false;
}

namespace {

// Time-expanded A* for ONE request against a set of committed paths, in an
// absolute time frame starting at `t0` (the cage sits at req.from at t0;
// committed paths park at their last waypoint). Returns the positions at
// t0, t0+1, ..., or nullopt when no conflict-free path reaches the target
// within `horizon` (an absolute step bound). Shared by the batch prioritized
// planner (t0 = 0) and the online replanner (route_astar_reserved). With
// `skip_own`, committed paths carrying req.id are not reservations.
std::optional<std::vector<GridCoord>> plan_one(const RouteRequest& req,
                                               const RouteConfig& config,
                                               const SiteComponents& sites,
                                               const std::vector<RoutedPath>& committed,
                                               bool skip_own, int t0, int horizon) {
  BIOCHIP_REQUIRE(in_bounds(config, req.from) && in_bounds(config, req.to),
                  "route endpoints outside the grid");
  const auto reserves = [&](const RoutedPath& c) { return !skip_own || c.id != req.id; };

  // Fast-fail prechecks: a hopeless request would otherwise exhaust the
  // whole (sites × horizon) time-expanded state space before reporting
  // failure — ruinous for a supervisor that retries replans online.
  //  * A committed path PARKED (its final waypoint, held forever) within the
  //    separation ring of the target makes parking permanently illegal; the
  //    check is exact, not heuristic.
  //  * Static unreachability (blocked/obstacle topology) implies
  //    time-expanded unreachability.
  for (const RoutedPath& c : committed)
    if (reserves(c) && !c.waypoints.empty() &&
        chebyshev(c.waypoints.back(), req.to) < config.min_separation)
      return std::nullopt;
  if (!sites.reachable(req.from, req.to)) return std::nullopt;

  // The planned cage avoids every committed path at every step. Cages not
  // yet planned are NOT treated as obstacles — they will, in turn, plan
  // around every committed path (including transiting near their own start),
  // which keeps swap/rotation instances solvable. The final verify_routes()
  // in callers guarantees global pairwise separation.
  auto conflicts = [&](GridCoord p, int t) {
    for (const RoutedPath& c : committed)
      if (reserves(c) && chebyshev(p, c.position_at(t)) < config.min_separation) return true;
    return false;
  };
  auto parking_ok = [&](GridCoord target, int t_arrive) {
    for (const RoutedPath& c : committed) {
      if (!reserves(c)) continue;
      const int last = c.last_step();
      for (int t = t_arrive; t <= std::max(last, t_arrive); ++t)
        if (chebyshev(target, c.position_at(t)) < config.min_separation) return false;
    }
    return true;
  };

  struct Node {
    int f;
    int h;
    int t;
    GridCoord pos;
    std::size_t parent;  ///< index into the closed list
  };
  struct NodeCmp {
    bool operator()(const Node& a, const Node& b) const {
      if (a.f != b.f) return a.f > b.f;
      return a.h > b.h;
    }
  };

  std::priority_queue<Node, std::vector<Node>, NodeCmp> open;
  std::vector<Node> closed;
  // det-ok: membership-only (insert/count, never iterated) — expansion order
  // comes from the priority queue's deterministic (f, h) tie-breaking, so the
  // hash layout cannot reach the returned path (pinned by
  // Route.AstarReservedRepeatedSearchesAreBitwiseIdentical).
  std::unordered_set<long long> visited;
  auto key = [&](GridCoord p, int t) {
    return (static_cast<long long>(t) * config.rows + p.row) * config.cols + p.col;
  };

  const int h0 = manhattan(req.from, req.to);
  open.push({t0 + h0, h0, t0, req.from, static_cast<std::size_t>(-1)});
  bool found = false;
  std::size_t goal_index = 0;

  while (!open.empty()) {
    const Node node = open.top();
    open.pop();
    if (!visited.insert(key(node.pos, node.t)).second) continue;
    closed.push_back(node);
    const std::size_t my_index = closed.size() - 1;

    if (node.pos == req.to && parking_ok(req.to, node.t)) {
      found = true;
      goal_index = my_index;
      break;
    }
    if (node.t >= horizon) continue;
    const GridCoord cur = node.pos;
    const GridCoord moves[5] = {{cur.col, cur.row},
                                {cur.col + 1, cur.row},
                                {cur.col - 1, cur.row},
                                {cur.col, cur.row + 1},
                                {cur.col, cur.row - 1}};
    for (const GridCoord nxt : moves) {
      if (!in_bounds(config, nxt)) continue;
      if (sites.obstacle(nxt) && !(nxt == req.to) && !(nxt == req.from)) continue;
      // Blocked (defective) sites are never entered — not even as endpoints;
      // a path may only sit on one it already starts from.
      if (sites.blocked(nxt) && !(nxt == req.from)) continue;
      const int nt = node.t + 1;
      if (visited.count(key(nxt, nt)) != 0) continue;
      if (conflicts(nxt, nt)) continue;
      const int h = manhattan(nxt, req.to);
      open.push({nt + h, h, nt, nxt, my_index});
    }
  }

  if (!found) return std::nullopt;
  std::vector<GridCoord> rev;
  for (std::size_t idx = goal_index; idx != static_cast<std::size_t>(-1);
       idx = closed[idx].parent)
    rev.push_back(closed[idx].pos);
  std::reverse(rev.begin(), rev.end());
  return rev;
}

}  // namespace

RouteResult route_astar(const std::vector<RouteRequest>& requests,
                        const RouteConfig& config) {
  // The sites' constructor checks the grid and the mask, as check_config.
  return route_astar(requests, config, SiteComponents(config, config.blocked));
}

RouteResult route_astar(const std::vector<RouteRequest>& requests,
                        const RouteConfig& config, const SiteComponents& sites) {
  check_sites(config, sites);
  const int horizon = config.max_steps > 0 ? config.max_steps
                                           : auto_horizon(config, requests.size());
  RouteResult result;
  result.paths.reserve(requests.size());

  // Prioritized planning: stationary (from==to) requests first — a parked
  // cage holds a cell and must not be evicted, so it becomes a standing
  // reservation that traffic plans around — then longest transfers first.
  auto rank = [&](const RouteRequest& r) {
    const int d = manhattan(r.from, r.to);
    return d == 0 ? std::numeric_limits<int>::max() : d;
  };
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int da = rank(requests[a]);
    const int db = rank(requests[b]);
    if (da != db) return da > db;
    return requests[a].id < requests[b].id;
  });

  for (std::size_t oi : order) {
    const RouteRequest& req = requests[oi];
    auto waypoints = plan_one(req, config, sites, result.paths, false, 0, horizon);
    if (!waypoints) {
      result.failed_ids.push_back(req.id);
      // Park the failed cage at its source so later plans still avoid it.
      result.paths.push_back({req.id, {req.from}});
      continue;
    }
    result.paths.push_back({req.id, std::move(*waypoints)});
  }

  // Restore request order in the output.
  std::sort(result.paths.begin(), result.paths.end(),
            [](const RoutedPath& a, const RoutedPath& b) { return a.id < b.id; });
  result.success = result.failed_ids.empty();
  finalize(result);
  return result;
}

std::optional<RoutedPath> route_astar_reserved(const RouteRequest& request,
                                               const RouteConfig& config,
                                               const SiteComponents& sites,
                                               const std::vector<RoutedPath>& committed,
                                               int t0) {
  check_sites(config, sites);
  BIOCHIP_REQUIRE(t0 >= 0, "reserved planning starts at a non-negative step");
  // The horizon counts the paths actually reserved: the cage's own is not.
  const auto reserved = static_cast<std::size_t>(
      std::count_if(committed.begin(), committed.end(),
                    [&](const RoutedPath& p) { return p.id != request.id; }));
  const int span = config.max_steps > 0 ? config.max_steps
                                        : auto_horizon(config, reserved + 1);
  auto waypoints = plan_one(request, config, sites, committed, true, t0, t0 + span);
  if (!waypoints) return std::nullopt;
  return RoutedPath{request.id, std::move(*waypoints), t0};
}

void verify_routes(const std::vector<RouteRequest>& requests, const RouteResult& result,
                   const RouteConfig& config) {
  check_config(config);
  BIOCHIP_REQUIRE(result.paths.size() == requests.size(),
                  "route result does not cover all requests");
  auto path_for = [&](int id) -> const RoutedPath& {
    for (const RoutedPath& p : result.paths)
      if (p.id == id) return p;
    throw PreconditionError("missing path for request " + std::to_string(id));
  };
  auto failed = [&](int id) {
    return std::find(result.failed_ids.begin(), result.failed_ids.end(), id) !=
           result.failed_ids.end();
  };

  int horizon = 0;
  for (const RoutedPath& p : result.paths)
    horizon = std::max(horizon, static_cast<int>(p.waypoints.size()) - 1);

  for (const RouteRequest& req : requests) {
    const RoutedPath& p = path_for(req.id);
    BIOCHIP_REQUIRE(!p.waypoints.empty(), "empty path");
    BIOCHIP_REQUIRE(p.waypoints.front() == req.from, "path does not start at the source");
    if (!failed(req.id))
      BIOCHIP_REQUIRE(p.waypoints.back() == req.to, "path does not end at the target");
    for (std::size_t t = 1; t < p.waypoints.size(); ++t)
      BIOCHIP_REQUIRE(manhattan(p.waypoints[t], p.waypoints[t - 1]) <= 1,
                      "cage jumped more than one site");
    for (const GridCoord w : p.waypoints) {
      BIOCHIP_REQUIRE(in_bounds(config, w), "path leaves the grid");
      if (!(w == req.from) && !(w == req.to))
        BIOCHIP_REQUIRE(!hits_obstacle(config, w), "path crosses an active module");
      if (!(w == req.from))
        BIOCHIP_REQUIRE(!config.is_blocked(w), "path enters a blocked (defective) site");
    }
  }
  for (std::size_t a = 0; a < result.paths.size(); ++a)
    for (std::size_t b = a + 1; b < result.paths.size(); ++b)
      for (int t = 0; t <= horizon; ++t)
        BIOCHIP_REQUIRE(chebyshev(result.paths[a].position_at(t), result.paths[b].position_at(t)) >=
                            config.min_separation,
                        "cage separation violated at step " + std::to_string(t));
}

}  // namespace biochip::cad
