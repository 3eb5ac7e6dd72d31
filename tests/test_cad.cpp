// Tests for the CAD layer: assay graphs, reconstructed benchmarks,
// scheduling, placement, routing, and end-to-end synthesis.

#include <gtest/gtest.h>

#include <set>

#include "cad/assay.hpp"
#include "cad/benchmarks.hpp"
#include "cad/place.hpp"
#include "cad/route.hpp"
#include "cad/schedule.hpp"
#include "cad/synthesis.hpp"
#include "chip/defects.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace biochip::cad {
namespace {

// ----------------------------------------------------------------- assay ----

TEST(Assay, BuildAndQuery) {
  AssayGraph g("t");
  const int a = g.add(OpKind::kInput, {}, 2.0, "a");
  const int b = g.add(OpKind::kInput, {}, 2.0, "b");
  const int m = g.add(OpKind::kMix, {a, b}, 10.0, "m");
  const int o = g.add(OpKind::kOutput, {m}, 2.0, "o");
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.successors(a), std::vector<int>{m});
  EXPECT_EQ(g.successors(m), std::vector<int>{o});
  EXPECT_NO_THROW(g.validate());
  EXPECT_DOUBLE_EQ(g.critical_path(), 14.0);
  EXPECT_EQ(g.count(OpKind::kInput), 2u);
}

TEST(Assay, ForwardReferenceRejected) {
  AssayGraph g("t");
  EXPECT_THROW(g.add(OpKind::kOutput, {5}, 1.0), PreconditionError);
}

TEST(Assay, ValidateCatchesWrongInDegree) {
  AssayGraph g("t");
  const int a = g.add(OpKind::kInput, {}, 1.0);
  g.add(OpKind::kMix, {a, a}, 1.0);  // mix with duplicate input passes count...
  // but the input now fans out twice without a split:
  EXPECT_THROW(g.validate(), ConfigError);
}

TEST(Assay, ValidateCatchesDanglingNonTerminal) {
  AssayGraph g("t");
  g.add(OpKind::kInput, {}, 1.0);  // never consumed
  EXPECT_THROW(g.validate(), ConfigError);
}

TEST(Assay, SplitMayFeedTwoConsumers) {
  AssayGraph g("t");
  const int a = g.add(OpKind::kInput, {}, 1.0);
  const int s = g.add(OpKind::kSplit, {a}, 1.0);
  g.add(OpKind::kOutput, {s}, 1.0);
  g.add(OpKind::kOutput, {s}, 1.0);
  EXPECT_NO_THROW(g.validate());
}

TEST(Assay, CriticalPathIgnoresResourceLimits) {
  // Two independent chains: CP is the longer one.
  AssayGraph g("t");
  const int a = g.add(OpKind::kInput, {}, 1.0);
  const int b = g.add(OpKind::kInput, {}, 1.0);
  const int ia = g.add(OpKind::kIncubate, {a}, 30.0);
  const int ib = g.add(OpKind::kIncubate, {b}, 5.0);
  g.add(OpKind::kOutput, {ia}, 1.0);
  g.add(OpKind::kOutput, {ib}, 1.0);
  EXPECT_DOUBLE_EQ(g.critical_path(), 32.0);
}

// ------------------------------------------------------------- benchmarks ----

TEST(Benchmarks, PcrShape) {
  const AssayGraph g = pcr_mix(3);
  EXPECT_EQ(g.count(OpKind::kInput), 8u);
  EXPECT_EQ(g.count(OpKind::kMix), 7u);  // the classic 7-mix PCR tree
  EXPECT_EQ(g.count(OpKind::kOutput), 1u);
  EXPECT_NO_THROW(g.validate());
  // Critical path: input + 3 mixing levels + output.
  OpDurations d;
  EXPECT_DOUBLE_EQ(g.critical_path(), d.input + 3 * d.mix + d.output);
}

TEST(Benchmarks, IvdShape) {
  const AssayGraph g = invitro_diagnostics(3, 4);
  EXPECT_EQ(g.count(OpKind::kMix), 12u);
  EXPECT_EQ(g.count(OpKind::kDetect), 12u);
  EXPECT_EQ(g.count(OpKind::kInput), 24u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Benchmarks, DilutionShape) {
  const AssayGraph g = serial_dilution(7);
  EXPECT_EQ(g.count(OpKind::kMix), 7u);
  EXPECT_EQ(g.count(OpKind::kSplit), 7u);
  EXPECT_EQ(g.count(OpKind::kDetect), 7u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Benchmarks, CellSortShape) {
  const AssayGraph g = dep_cell_sort(16);
  EXPECT_EQ(g.count(OpKind::kInput), 16u);
  EXPECT_EQ(g.count(OpKind::kDetect), 16u);
  EXPECT_EQ(g.count(OpKind::kOutput), 16u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Benchmarks, SuiteAllValid) {
  for (const AssayGraph& g : benchmark_suite()) EXPECT_NO_THROW(g.validate());
}

TEST(Benchmarks, ParameterValidation) {
  EXPECT_THROW(pcr_mix(0), PreconditionError);
  EXPECT_THROW(invitro_diagnostics(0, 3), PreconditionError);
  EXPECT_THROW(serial_dilution(100), PreconditionError);
}

// -------------------------------------------------------------- schedule ----

TEST(Schedule, AsapEqualsCriticalPath) {
  const AssayGraph g = pcr_mix(3);
  const Schedule s = asap_schedule(g);
  EXPECT_DOUBLE_EQ(s.makespan, g.critical_path());
}

TEST(Schedule, AlapRespectsDeadlineAndPrecedence) {
  const AssayGraph g = pcr_mix(3);
  const double deadline = g.critical_path() + 20.0;
  const Schedule s = alap_schedule(g, deadline);
  EXPECT_DOUBLE_EQ(s.makespan, deadline);
  for (const Operation& o : g.operations())
    for (int in : o.inputs)
      EXPECT_LE(s.at(in).end, s.at(o.id).start + 1e-9);
  EXPECT_THROW(alap_schedule(g, 1.0), PreconditionError);
}

TEST(Schedule, ListRespectsResources) {
  const AssayGraph g = pcr_mix(3);
  const ChipResources res{2, 0, 2};
  const Schedule s = list_schedule(g, res);
  EXPECT_NO_THROW(check_schedule(g, s, res));
  EXPECT_GE(s.makespan, g.critical_path());
}

TEST(Schedule, UnlimitedResourcesReachAsap) {
  const AssayGraph g = pcr_mix(3);
  const ChipResources unlimited{0, 0, 0};
  const Schedule s = list_schedule(g, unlimited);
  EXPECT_NEAR(s.makespan, g.critical_path(), 1e-9);
}

TEST(Schedule, ListNeverWorseThanFifoOnSuite) {
  const ChipResources res{2, 2, 2};
  for (const AssayGraph& g : benchmark_suite()) {
    const Schedule lst = list_schedule(g, res);
    const Schedule fifo = fifo_schedule(g, res);
    EXPECT_NO_THROW(check_schedule(g, lst, res)) << g.name();
    EXPECT_NO_THROW(check_schedule(g, fifo, res)) << g.name();
    EXPECT_LE(lst.makespan, fifo.makespan * 1.001) << g.name();
  }
}

TEST(Schedule, TighterResourcesNeverFaster) {
  const AssayGraph g = invitro_diagnostics(3, 3);
  double prev = 1e99;
  for (int mixers : {1, 2, 4, 8}) {
    const Schedule s = list_schedule(g, {mixers, 0, 2});
    EXPECT_LE(s.makespan, prev + 1e-9) << mixers;
    prev = s.makespan;
  }
}

TEST(Schedule, CheckScheduleCatchesViolations) {
  const AssayGraph g = pcr_mix(2);
  Schedule s = list_schedule(g, {0, 0, 0});
  // Push an input op later than its consuming mix: precedence broken.
  s.ops[0].start += 100.0;
  s.ops[0].end += 100.0;
  EXPECT_THROW(check_schedule(g, s, {0, 0, 0}), PreconditionError);
  // Duration tampering is caught too.
  Schedule s2 = list_schedule(g, {0, 0, 0});
  s2.ops[1].end += 3.0;
  EXPECT_THROW(check_schedule(g, s2, {0, 0, 0}), PreconditionError);
}

// ----------------------------------------------------------------- place ----

class PlaceTest : public ::testing::Test {
 protected:
  AssayGraph graph_ = pcr_mix(3);
  Schedule schedule_ = list_schedule(graph_, {4, 0, 4});
  PlacerConfig config_{{64, 64}, 6, 2};
};

TEST_F(PlaceTest, GreedyPlacementLegal) {
  const Placement p = greedy_place(graph_, schedule_, config_);
  ASSERT_TRUE(p.valid) << (p.issues.empty() ? "" : p.issues.front());
  EXPECT_NO_THROW(check_placement(graph_, schedule_, p, config_));
}

TEST_F(PlaceTest, EveryOpGetsAModule) {
  const Placement p = greedy_place(graph_, schedule_, config_);
  for (const Operation& o : graph_.operations())
    EXPECT_NO_THROW(p.at(o.id)) << o.label;
}

TEST_F(PlaceTest, PortsSitOnEdges) {
  const Placement p = greedy_place(graph_, schedule_, config_);
  for (const Operation& o : graph_.operations()) {
    if (o.kind == OpKind::kInput) {
      EXPECT_EQ(p.at(o.id).origin.col, 0) << o.label;
    }
    if (o.kind == OpKind::kOutput) {
      EXPECT_EQ(p.at(o.id).origin.col, config_.dims.cols - 1) << o.label;
    }
  }
}

TEST_F(PlaceTest, AnnealImprovesOrMatchesTransportCost) {
  const Placement greedy = greedy_place(graph_, schedule_, config_);
  Rng rng(13);
  const Placement annealed = annealed_place(graph_, schedule_, config_, rng, 3000);
  ASSERT_TRUE(annealed.valid);
  EXPECT_NO_THROW(check_placement(graph_, schedule_, annealed, config_));
  EXPECT_LE(transport_cost(graph_, annealed), transport_cost(graph_, greedy) + 1e-9);
}

TEST_F(PlaceTest, TooSmallArrayReported) {
  // 12x12 sites cannot host 4 concurrent 6x6 modules with halo 2.
  PlacerConfig tiny{{12, 12}, 6, 2};
  const AssayGraph wide = invitro_diagnostics(2, 2);
  const Schedule s = list_schedule(wide, {4, 0, 4});
  const Placement p = greedy_place(wide, s, tiny);
  EXPECT_FALSE(p.valid);
  EXPECT_FALSE(p.issues.empty());
}

TEST_F(PlaceTest, ModuleSizeSanityCheck) {
  PlacerConfig bad{{6, 6}, 6, 2};
  EXPECT_THROW(greedy_place(graph_, schedule_, bad), PreconditionError);
}

// ----------------------------------------------------------------- route ----

RouteConfig small_grid() {
  RouteConfig cfg;
  cfg.cols = 32;
  cfg.rows = 32;
  return cfg;
}

TEST(Route, SingleCageStraightLine) {
  const std::vector<RouteRequest> reqs{{0, {2, 2}, {20, 2}}};
  for (auto* router : {&route_greedy, &route_astar}) {
    const RouteResult r = (*router)(reqs, small_grid());
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.makespan_steps, 18);
    EXPECT_EQ(r.total_moves, 18u);
    EXPECT_NO_THROW(verify_routes(reqs, r, small_grid()));
  }
}

TEST(Route, AlreadyAtTarget) {
  const std::vector<RouteRequest> reqs{{0, {5, 5}, {5, 5}}};
  const RouteResult r = route_astar(reqs, small_grid());
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.makespan_steps, 0);
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Route, CrossingPairAstarSucceeds) {
  // Two cages swapping corridor ends: greedy may gridlock, A* must solve.
  const std::vector<RouteRequest> reqs{{0, {2, 10}, {28, 10}},
                                       {1, {28, 12}, {2, 12}}};
  const RouteResult r = route_astar(reqs, small_grid());
  EXPECT_TRUE(r.success);
  EXPECT_NO_THROW(verify_routes(reqs, r, small_grid()));
}

TEST(Route, HeadOnConflictResolvedByAstar) {
  // Directly head-on on the same row: one cage must yield.
  const std::vector<RouteRequest> reqs{{0, {2, 10}, {28, 10}},
                                       {1, {28, 10}, {2, 10}}};
  const RouteResult r = route_astar(reqs, small_grid());
  EXPECT_TRUE(r.success);
  EXPECT_NO_THROW(verify_routes(reqs, r, small_grid()));
  EXPECT_GE(r.makespan_steps, 26);  // at least the Manhattan distance
}

TEST(Route, ObstacleAvoided) {
  RouteConfig cfg = small_grid();
  cfg.obstacles.push_back({{10, 0}, 4, 28});  // wall with gap at the top
  const std::vector<RouteRequest> reqs{{0, {2, 5}, {28, 5}}};
  const RouteResult r = route_astar(reqs, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_NO_THROW(verify_routes(reqs, r, cfg));
  EXPECT_GT(r.total_moves, 26u);  // forced detour
}

TEST(Route, ImpossibleRouteFails) {
  RouteConfig cfg = small_grid();
  cfg.obstacles.push_back({{10, 0}, 4, 32});  // full wall
  cfg.max_steps = 200;
  const std::vector<RouteRequest> reqs{{0, {2, 5}, {28, 5}}};
  const RouteResult r = route_astar(reqs, cfg);
  EXPECT_FALSE(r.success);
  ASSERT_EQ(r.failed_ids.size(), 1u);
  EXPECT_EQ(r.failed_ids.front(), 0);
}

TEST(Route, BlockedSitesNeverEntered) {
  // Defect-aware routing: sites blocked by a sampled DefectMap must never be
  // entered by either router, on randomized instances.
  for (const int seed : {1, 2, 3, 4, 5}) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const chip::ElectrodeArray array(32, 32, 20e-6);
    const chip::DefectMap defects = chip::sample_defects(array, 0.01, rng);
    RouteConfig cfg = small_grid();
    cfg.blocked = chip::blocked_site_mask(array, defects, 1);

    std::vector<RouteRequest> reqs;
    int id = 0;
    while (reqs.size() < 4) {
      const GridCoord from{static_cast<int>(rng.uniform_int(2, 29)),
                           static_cast<int>(rng.uniform_int(2, 29))};
      const GridCoord to{static_cast<int>(rng.uniform_int(2, 29)),
                         static_cast<int>(rng.uniform_int(2, 29))};
      if (cfg.is_blocked(from) || cfg.is_blocked(to)) continue;
      bool separated = true;
      for (const RouteRequest& r : reqs)
        if (chebyshev(from, r.from) < 2 || chebyshev(to, r.to) < 2) separated = false;
      if (!separated) continue;
      reqs.push_back({id++, from, to});
    }

    for (const bool astar : {false, true}) {
      const RouteResult r = astar ? route_astar(reqs, cfg) : route_greedy(reqs, cfg);
      for (const RoutedPath& p : r.paths)
        for (std::size_t t = 1; t < p.waypoints.size(); ++t)
          EXPECT_FALSE(cfg.is_blocked(p.waypoints[t]))
              << "seed " << seed << " cage " << p.id << " t " << t;
      if (astar) {
        EXPECT_TRUE(r.success) << "seed " << seed;
        EXPECT_NO_THROW(verify_routes(reqs, r, cfg));
      }
    }

    // An owner's sites stand in for the config's mask: a mask-free config
    // routed under sites built from the mask plans exactly the same paths.
    RouteConfig grid = cfg;
    grid.blocked.clear();
    const RouteResult own = route_astar(reqs, grid, SiteComponents(cfg, cfg.blocked));
    const RouteResult built = route_astar(reqs, cfg);
    ASSERT_EQ(own.paths.size(), built.paths.size());
    for (std::size_t i = 0; i < own.paths.size(); ++i)
      EXPECT_EQ(own.paths[i].waypoints, built.paths[i].waypoints)
          << "seed " << seed << " cage " << own.paths[i].id;
    EXPECT_EQ(own.failed_ids, built.failed_ids);
  }
  RouteConfig wider = small_grid();
  wider.cols = 33;
  EXPECT_THROW(route_astar({{0, {2, 2}, {4, 2}}}, small_grid(), SiteComponents(wider, {})),
               PreconditionError);
}

TEST(Route, BlockedDestinationFailsCleanly) {
  RouteConfig cfg = small_grid();
  cfg.blocked.assign(static_cast<std::size_t>(cfg.cols) * cfg.rows, 0);
  cfg.blocked[10 * 32 + 20] = 1;  // target site {20, 10}
  cfg.max_steps = 120;
  const std::vector<RouteRequest> reqs{{0, {2, 10}, {20, 10}}};
  const RouteResult r = route_astar(reqs, cfg);
  EXPECT_FALSE(r.success);
  ASSERT_EQ(r.failed_ids.size(), 1u);
}

TEST(Route, ReservedReplanAvoidsCommittedTraffic) {
  // Plan two cages, then re-route cage 0 mid-execution (t0 = 3) to a new
  // target: the new path must start where the cage actually is and respect
  // cage 1's still-valid committed path at every absolute step.
  const std::vector<RouteRequest> reqs{{0, {2, 10}, {20, 10}},
                                       {1, {10, 2}, {10, 20}}};
  const RouteConfig cfg = small_grid();
  const RouteResult base = route_astar(reqs, cfg);
  ASSERT_TRUE(base.success);

  const int t0 = 3;
  const RoutedPath& own = base.paths[0];
  const std::vector<RoutedPath> committed{base.paths[1]};
  const RouteRequest replan{0, own.position_at(t0), {20, 4}};
  const auto fresh =
      route_astar_reserved(replan, cfg, SiteComponents(cfg, cfg.blocked), committed, t0);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->waypoints.front(), own.position_at(t0));
  EXPECT_EQ(fresh->waypoints.back(), (GridCoord{20, 4}));
  for (std::size_t s = 0; s < fresh->waypoints.size(); ++s) {
    const int t = t0 + static_cast<int>(s);
    EXPECT_GE(chebyshev(fresh->waypoints[s], committed[0].position_at(t)),
              cfg.min_separation)
        << "t " << t;
    if (s > 0) {
      EXPECT_LE(manhattan(fresh->waypoints[s], fresh->waypoints[s - 1]), 1);
    }
  }
  // And the parked tail stays separated from the committed path's remainder.
  for (int t = t0 + static_cast<int>(fresh->waypoints.size());
       t <= static_cast<int>(committed[0].waypoints.size()); ++t)
    EXPECT_GE(chebyshev(fresh->waypoints.back(), committed[0].position_at(t)),
              cfg.min_separation);
}

// Determinism-audit regression (docs/static-analysis.md): the reserved A*
// keeps an unordered_set of visited (site, t) keys. That set is
// membership-only — expansion order is fully decided by the priority queue's
// (f, h, push-order) tie-breaking — so the hash layout must never reach the
// returned path. Pin it: many searches over obstacle-rich grids, re-run in
// reverse order and interleaved with unrelated allocations (which perturb
// the set's bucket landscape), must return bitwise-identical waypoints.
TEST(Route, AstarReservedRepeatedSearchesAreBitwiseIdentical) {
  RouteConfig cfg = small_grid();
  cfg.max_steps = 160;
  const std::vector<RouteRequest> reqs{{0, {2, 10}, {20, 10}},
                                       {1, {10, 2}, {10, 20}}};
  const RouteResult base = route_astar(reqs, cfg);
  ASSERT_TRUE(base.success);
  const std::vector<RoutedPath> committed{base.paths[1]};
  const SiteComponents sites(cfg, cfg.blocked);

  std::vector<RouteRequest> replans;
  for (int col = 4; col <= 24; col += 2)
    replans.push_back({0, {2, 10}, {col, 4}});

  std::vector<std::vector<GridCoord>> first_pass;
  for (const RouteRequest& r : replans) {
    const auto p = route_astar_reserved(r, cfg, sites, committed, 0);
    ASSERT_TRUE(p.has_value()) << "to {" << r.to.col << "," << r.to.row << "}";
    first_pass.push_back(p->waypoints);
  }
  for (std::size_t i = replans.size(); i-- > 0;) {
    std::vector<int> churn(1 + 977 * i % 4096);  // heap-state perturbation
    churn.back() = static_cast<int>(i);
    const auto p = route_astar_reserved(replans[i], cfg, sites, committed, 0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->waypoints, first_pass[i]) << "replan " << i << " diverged";
  }

  // An owner of the whole plan passes the cage's own path along: skipped by
  // its id, it must route exactly as if it had been removed.
  for (std::size_t i = 0; i < replans.size(); ++i) {
    const auto p = route_astar_reserved(replans[i], cfg, sites, base.paths, 0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->waypoints, first_pass[i]) << "replan " << i << " with its own path";
  }

  // The auto horizon counts only the paths reserved. Cage 1 waits beside the
  // target until step 230, just past the horizon of one reservation (228 on
  // this grid): counting the cage's own path as well (236) would let it park.
  RouteConfig open = small_grid();
  RoutedPath waiter{1, std::vector<GridCoord>(231, GridCoord{20, 9})};
  for (int row = 8; row >= 5; --row) waiter.waypoints.push_back({20, row});
  const RoutedPath own{0, {{2, 10}}};
  const RouteRequest late{0, {2, 10}, {20, 10}};
  const SiteComponents open_sites(open, open.blocked);
  EXPECT_FALSE(route_astar_reserved(late, open, open_sites, {waiter}, 0).has_value());
  EXPECT_FALSE(route_astar_reserved(late, open, open_sites, {own, waiter}, 0).has_value());
  open.max_steps = 236;
  const auto longer = route_astar_reserved(late, open, open_sites, {waiter}, 0);
  ASSERT_TRUE(longer.has_value());  // the case does turn on those 8 steps
  EXPECT_EQ(route_astar_reserved(late, open, open_sites, {own, waiter}, 0)->waypoints,
            longer->waypoints);
}

// The flood the router ran before every search until the precheck became a
// label lookup, kept as the oracle of SiteComponents::reachable: a DFS from
// `from` over in-bounds sites, where an obstacle may only be the start or the
// target and a blocked site only the start.
bool flood_reachable(const RouteRequest& req, const RouteConfig& config) {
  if (req.from == req.to) return true;
  const auto in_bounds = [&](GridCoord c) {
    return c.col >= 0 && c.col < config.cols && c.row >= 0 && c.row < config.rows;
  };
  const auto idx = [&](GridCoord c) {
    return static_cast<std::size_t>(c.row) * static_cast<std::size_t>(config.cols) +
           static_cast<std::size_t>(c.col);
  };
  const auto passable = [&](GridCoord c) {
    bool obstacle = false;
    for (const RouteObstacle& ob : config.obstacles) obstacle = obstacle || ob.contains(c);
    if (obstacle && !(c == req.to) && !(c == req.from)) return false;
    if (config.is_blocked(c) && !(c == req.from)) return false;
    return true;
  };
  std::vector<std::uint8_t> seen(
      static_cast<std::size_t>(config.cols) * static_cast<std::size_t>(config.rows), 0);
  std::vector<GridCoord> stack{req.from};
  seen[idx(req.from)] = 1;
  while (!stack.empty()) {
    const GridCoord cur = stack.back();
    stack.pop_back();
    const GridCoord nbs[4] = {{cur.col + 1, cur.row},
                              {cur.col - 1, cur.row},
                              {cur.col, cur.row + 1},
                              {cur.col, cur.row - 1}};
    for (const GridCoord nxt : nbs) {
      if (!in_bounds(nxt) || !passable(nxt)) continue;
      if (nxt == req.to) return true;
      if (seen[idx(nxt)]) continue;
      seen[idx(nxt)] = 1;
      stack.push_back(nxt);
    }
  }
  return false;
}

// Seeded fuzz of the label precheck against the flood: 1×N and N×1 strips
// and small grids, blocked densities 0-0.6 and empty masks, obstacles that
// reach past the edges, and endpoints chosen to hit every rule — from == to,
// adjacent pairs, a from or to inside an obstacle, a blocked from or to, and
// grid edges.
TEST(Route, SiteComponentsMatchFloodOracle) {
  Rng rng(0x5C0DE);
  const auto pick = [&](int n) { return static_cast<int>(rng.uniform_int(0, n - 1)); };
  std::size_t cases = 0, reachable = 0;
  for (int grid = 0; grid < 2400; ++grid) {
    RouteConfig cfg;
    cfg.cols = grid % 4 == 0 ? 1 : 1 + pick(14);
    cfg.rows = grid % 4 == 1 ? 1 : 1 + pick(14);
    const auto sites = static_cast<std::size_t>(cfg.cols) * static_cast<std::size_t>(cfg.rows);
    const double density = 0.1 * static_cast<double>(grid % 7);  // 0 .. 0.6
    if (grid % 5 != 0) {  // every fifth grid keeps the empty (all-free) mask
      cfg.blocked.assign(sites, 0);
      for (std::uint8_t& b : cfg.blocked) b = rng.bernoulli(density) ? 1 : 0;
    }
    for (int k = pick(3); k > 0; --k)
      cfg.obstacles.push_back({{pick(cfg.cols + 2) - 1, pick(cfg.rows + 2) - 1},
                               1 + pick(4), 1 + pick(4)});
    const SiteComponents components(cfg, cfg.blocked);

    const auto random_site = [&] { return GridCoord{pick(cfg.cols), pick(cfg.rows)}; };
    const auto site_where = [&](auto pred) {
      for (int tries = 0; tries < 64; ++tries) {
        const GridCoord c = random_site();
        if (pred(c)) return c;
      }
      return random_site();
    };
    const auto in_obstacle = [&](GridCoord c) {
      for (const RouteObstacle& ob : cfg.obstacles)
        if (ob.contains(c)) return true;
      return false;
    };
    const auto on_edge = [&](GridCoord c) {
      return c.col == 0 || c.row == 0 || c.col == cfg.cols - 1 || c.row == cfg.rows - 1;
    };
    for (int pair = 0; pair < 10; ++pair) {
      GridCoord from = random_site();
      GridCoord to = random_site();
      switch (pair) {
        case 0: to = from; break;
        case 1: {
          const GridCoord nbs[4] = {{from.col + 1, from.row},
                                    {from.col - 1, from.row},
                                    {from.col, from.row + 1},
                                    {from.col, from.row - 1}};
          const GridCoord nb = nbs[pick(4)];
          if (nb.col >= 0 && nb.col < cfg.cols && nb.row >= 0 && nb.row < cfg.rows) to = nb;
          break;
        }
        case 2: from = site_where(in_obstacle); break;
        case 3: to = site_where(in_obstacle); break;
        case 4: from = site_where([&](GridCoord c) { return cfg.is_blocked(c); }); break;
        case 5: to = site_where([&](GridCoord c) { return cfg.is_blocked(c); }); break;
        case 6: from = site_where(on_edge); to = site_where(on_edge); break;
        default: break;
      }
      const bool expect = flood_reachable({0, from, to}, cfg);
      ASSERT_EQ(components.reachable(from, to), expect)
          << "grid " << grid << " (" << cfg.cols << "x" << cfg.rows << ", "
          << cfg.obstacles.size() << " obstacles) from {" << from.col << "," << from.row
          << "} to {" << to.col << "," << to.row << "}";
      ++cases;
      if (expect) ++reachable;
    }
  }
  EXPECT_GE(cases, 20000u);
  // Both answers are common, so neither rule is checked only vacuously.
  EXPECT_GT(reachable, cases / 5);
  EXPECT_LT(reachable, cases - cases / 5);
}

TEST(Route, GreedyGridlocksWhereAstarSolves) {
  // Narrow 5-row grid, two cages must pass each other: greedy's no-detour
  // policy deadlocks, prioritized A* waits one cage out.
  RouteConfig cfg;
  cfg.cols = 24;
  cfg.rows = 5;
  const std::vector<RouteRequest> reqs{{0, {2, 2}, {21, 2}}, {1, {21, 2}, {2, 2}}};
  const RouteResult greedy = route_greedy(reqs, cfg);
  const RouteResult astar = route_astar(reqs, cfg);
  EXPECT_FALSE(greedy.success);
  EXPECT_TRUE(astar.success);
  EXPECT_NO_THROW(verify_routes(reqs, astar, cfg));
}

class RouteSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(RouteSeedTest, RandomScattersAlwaysVerify) {
  // Property test: random many-cage instances must either fail cleanly or
  // produce fully verified, separation-respecting paths.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  RouteConfig cfg;
  cfg.cols = 40;
  cfg.rows = 40;
  std::vector<RouteRequest> reqs;
  std::set<std::pair<int, int>> used_from, used_to;
  for (int i = 0; i < 12; ++i) {
    GridCoord from{static_cast<int>(rng.uniform_int(0, 39)),
                   static_cast<int>(rng.uniform_int(0, 39))};
    GridCoord to{static_cast<int>(rng.uniform_int(0, 39)),
                 static_cast<int>(rng.uniform_int(0, 39))};
    // Keep sources/targets pairwise separated (physical precondition).
    bool ok = true;
    for (const auto& [c, r] : used_from)
      if (chebyshev(from, {c, r}) < 2) ok = false;
    for (const auto& [c, r] : used_to)
      if (chebyshev(to, {c, r}) < 2) ok = false;
    if (!ok) continue;
    used_from.insert({from.col, from.row});
    used_to.insert({to.col, to.row});
    reqs.push_back({i, from, to});
  }
  const RouteResult r = route_astar(reqs, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_NO_THROW(verify_routes(reqs, r, cfg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteSeedTest, ::testing::Range(1, 9));

// -------------------------------------------------------------- synthesis ----

TEST(Synthesis, PcrEndToEnd) {
  SynthesisConfig cfg;
  const SynthesisResult r = synthesize(pcr_mix(3), cfg);
  EXPECT_TRUE(r.success) << (r.issues.empty() ? "" : r.issues.front());
  EXPECT_GE(r.processing_makespan, pcr_mix(3).critical_path() - 1e-9);
  EXPECT_GT(r.transport_steps, 0u);
  EXPECT_NEAR(r.total_time, r.processing_makespan + r.transport_time, 1e-9);
}

TEST(Synthesis, SuiteSynthesizesOnPaperScaleArray) {
  SynthesisConfig cfg;
  cfg.dims = {128, 128};
  cfg.resources = {6, 0, 4};
  for (const AssayGraph& g : benchmark_suite()) {
    const SynthesisResult r = synthesize(g, cfg);
    EXPECT_TRUE(r.success) << g.name() << ": "
                           << (r.issues.empty() ? "?" : r.issues.front());
  }
}

TEST(Synthesis, TransportTimeUsesStepPeriod) {
  SynthesisConfig slow;
  slow.step_period = 2.0;  // 10 µm/s cells
  SynthesisConfig fast;
  fast.step_period = 0.2;  // 100 µm/s cells
  const SynthesisResult rs = synthesize(pcr_mix(2), slow);
  const SynthesisResult rf = synthesize(pcr_mix(2), fast);
  ASSERT_TRUE(rs.success && rf.success);
  EXPECT_EQ(rs.transport_steps, rf.transport_steps);  // same routes
  EXPECT_NEAR(rs.transport_time / rf.transport_time, 10.0, 1e-6);
}

TEST(Synthesis, FifoBaselineNeverBeatsListScheduler) {
  SynthesisConfig lst;
  lst.resources = {2, 0, 2};
  SynthesisConfig fifo = lst;
  fifo.list_scheduler = false;
  const SynthesisResult a = synthesize(invitro_diagnostics(2, 3), lst);
  const SynthesisResult b = synthesize(invitro_diagnostics(2, 3), fifo);
  ASSERT_TRUE(a.success && b.success);
  EXPECT_LE(a.processing_makespan, b.processing_makespan + 1e-9);
}

TEST(Synthesis, EpisodesCoverEveryDataEdge) {
  const AssayGraph g = pcr_mix(2);
  SynthesisConfig cfg;
  const SynthesisResult r = synthesize(g, cfg);
  ASSERT_TRUE(r.success);
  std::size_t edges = 0;
  for (const Operation& o : g.operations()) edges += o.inputs.size();
  std::size_t transfers = 0;
  for (const TransferEpisode& e : r.episodes) transfers += e.transfers.size();
  EXPECT_EQ(transfers, edges);
}

TEST(Synthesis, ImpossiblePlacementReportedNotThrown) {
  SynthesisConfig cfg;
  cfg.dims = {12, 12};
  cfg.resources = {8, 0, 8};
  const SynthesisResult r = synthesize(invitro_diagnostics(3, 3), cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.issues.empty());
}

}  // namespace
}  // namespace biochip::cad
