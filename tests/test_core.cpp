// Tests for the core simulation engine and the LabOnChipPlatform facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "cad/benchmarks.hpp"
#include "cell/library.hpp"
#include "common/error.hpp"
#include "control/platform.hpp"
#include "core/simulation.hpp"

namespace biochip::core {
namespace {

field::HarmonicCage test_cage() {
  // Paper-scale calibrated values (see bench_field_solver for provenance).
  return {{50e-6, 50e-6, 21e-6}, 5.2e7, 1.2e19, 1.3e20};
}

// ------------------------------------------------------- cage field model ----

TEST(CageFieldModel, TrapCenterFollowsSite) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  const Vec3 c = model.trap_center({3, 7});
  EXPECT_NEAR(c.x, 70e-6, 1e-12);
  EXPECT_NEAR(c.y, 150e-6, 1e-12);
  EXPECT_NEAR(c.z, 21e-6, 1e-12);
}

TEST(CageFieldModel, GradientZeroOutsideCaptureRadius) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{5, 5}});
  const Vec3 far = model.trap_center({5, 5}) + Vec3{100e-6, 0, 0};
  EXPECT_EQ(model.grad_erms2(far), (Vec3{}));
}

TEST(CageFieldModel, GradientPointsAwayFromCenterInsideTrap) {
  // ∇W points up-gradient (away from the minimum); the nDEP force
  // (prefactor < 0) then points back toward the center.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{5, 5}});
  const Vec3 center = model.trap_center({5, 5});
  const Vec3 g = model.grad_erms2(center + Vec3{5e-6, 0, 0});
  EXPECT_GT(g.x, 0.0);
  EXPECT_NEAR(g.y, 0.0, 1e-3);
}

TEST(CageFieldModel, NearestCageWins) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{2, 5}, {8, 5}});
  const Vec3 near_first = model.trap_center({2, 5}) + Vec3{4e-6, 0, 0};
  const Vec3 g = model.grad_erms2(near_first);
  EXPECT_GT(g.x, 0.0);  // curvature of cage at {2,5}, not pulled by {8,5}
}

TEST(CageFieldModel, SpatialHashMatchesLinearReference) {
  // The O(1) hash probe must reproduce the linear-scan oracle over
  // randomized active-site sets (dense, sparse, negative coords, duplicates)
  // and query points spread inside and outside the populated region.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  Rng rng(20260730);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<GridCoord> sites;
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 60));
    for (std::size_t s = 0; s < count; ++s)
      sites.push_back({static_cast<int>(rng.uniform_int(-4, 24)),
                       static_cast<int>(rng.uniform_int(-4, 24))});
    if (trial % 3 == 0) sites.push_back(sites.front());  // duplicate site
    model.set_sites(sites);
    for (int q = 0; q < 200; ++q) {
      const Vec3 p{rng.uniform(-6 * 20e-6, 26 * 20e-6),
                   rng.uniform(-6 * 20e-6, 26 * 20e-6), rng.uniform(0.0, 60e-6)};
      EXPECT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p))
          << "trial=" << trial << " q=" << q;
    }
  }
}

TEST(CageFieldModel, HashAgreesWithLinearAtTrapAndCaptureShell) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{0, 0}, {3, 3}, {7, 2}});
  for (const GridCoord site : model.sites()) {
    const Vec3 c = model.trap_center(site);
    for (const Vec3 offset :
         {Vec3{}, Vec3{5e-6, -3e-6, 2e-6}, Vec3{29.9e-6, 0, 0}, Vec3{0, 31e-6, 0}}) {
      const Vec3 p = c + offset;
      EXPECT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p));
    }
  }
}

TEST(CageFieldModel, EmptySiteSetGivesZeroDrive) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  EXPECT_EQ(model.grad_erms2({50e-6, 50e-6, 21e-6}), (Vec3{}));
  model.set_sites({{1, 1}});
  model.set_sites({});
  EXPECT_EQ(model.grad_erms2(model.trap_center({1, 1})), (Vec3{}));
}

TEST(CageFieldModel, RepeatedSetSitesMatchFreshModelAndOracle) {
  // One cage moves per hop (the tow pattern). After every hop the model must
  // answer as a fresh model given the same list and as the linear-scan
  // oracle, duplicate sites included.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  Rng rng(20260731);
  std::vector<GridCoord> sites;
  for (int s = 0; s < 24; ++s)
    sites.push_back({static_cast<int>(rng.uniform_int(0, 15)),
                     static_cast<int>(rng.uniform_int(0, 15))});
  sites.push_back(sites.front());  // duplicate from the start
  model.set_sites(sites);
  for (int hop = 0; hop < 50; ++hop) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1));
    sites[idx] = {static_cast<int>(rng.uniform_int(0, 15)),
                  static_cast<int>(rng.uniform_int(0, 15))};
    if (hop % 7 == 0)  // periodically create & later destroy duplicates
      sites[(idx + 3) % sites.size()] = sites[idx];
    model.set_sites(sites);
    CageFieldModel fresh(test_cage(), 20e-6, 30e-6);
    fresh.set_sites(sites);
    for (int q = 0; q < 30; ++q) {
      const Vec3 p{rng.uniform(-2 * 20e-6, 18 * 20e-6),
                   rng.uniform(-2 * 20e-6, 18 * 20e-6), rng.uniform(0.0, 50e-6)};
      const Vec3 g = model.grad_erms2(p);
      ASSERT_EQ(g, fresh.grad_erms2(p)) << "hop=" << hop << " q=" << q;
      ASSERT_EQ(g, model.grad_erms2_linear(p)) << "hop=" << hop << " q=" << q;
    }
  }
}

TEST(CageFieldModel, GrowAndShrinkMatchOracle) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  std::vector<GridCoord> sites{{1, 1}, {5, 5}, {9, 9}};
  model.set_sites(sites);
  sites.push_back({3, 7});
  model.set_sites(sites);
  for (const GridCoord site : sites) {
    const Vec3 p = model.trap_center(site);
    EXPECT_EQ(model.grad_erms2(p + Vec3{4e-6, 0, 0}),
              model.grad_erms2_linear(p + Vec3{4e-6, 0, 0}));
  }
  sites.erase(sites.begin());
  model.set_sites(sites);
  EXPECT_EQ(model.grad_erms2(model.trap_center({1, 1})),
            model.grad_erms2_linear(model.trap_center({1, 1})));
}

TEST(CageFieldModel, HugeCaptureRadiusFallsBackToScan) {
  // Capture radius spanning far more candidate sites than live cages takes
  // the linear fallback; the answers must still agree.
  CageFieldModel model(test_cage(), 20e-6, 500e-6);
  model.set_sites({{1, 2}, {10, 10}});
  const Vec3 p{95e-6, 80e-6, 21e-6};
  EXPECT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p));
}

// Exact-arithmetic geometry for tie tests: pitch 2 m puts trap centers at
// odd integers, so midpoints and their squared distances are binary-exact
// and equidistance is a true floating-point tie, not an approximate one.
CageFieldModel tie_model() {
  return CageFieldModel(field::HarmonicCage{{0, 0, 0}, 1.0, 2.0, 3.0},
                        /*pitch=*/2.0, /*capture_radius=*/3.0);
}

TEST(CageFieldModel, ExactDistanceTiesBreakIdenticallyOnBothPaths) {
  // Regression for the hashed/linear tie divergence: the box scan visits
  // candidates in row-major order while the oracle follows insertion order,
  // so with a last-tie-wins rule a body exactly equidistant between two
  // trap centers — the midpoint of every tow hop — could get different
  // drives on the two paths. The insertion order below is adversarial: the
  // historical rules picked {1,1} (hashed) versus {0,0} (linear) at the
  // block center. The fixed rule: smallest (row, col) wins on both paths.
  CageFieldModel model = tie_model();
  model.set_sites({{1, 1}, {1, 0}, {0, 1}, {0, 0}});  // 2×2 active block

  const auto winner_drive = [&](GridCoord site, Vec3 p) {
    CageFieldModel solo = tie_model();
    solo.set_sites({site});
    return solo.grad_erms2(p);
  };
  const auto expect_winner = [&](Vec3 p, GridCoord site, const char* what) {
    const Vec3 g = model.grad_erms2(p);
    EXPECT_EQ(g, model.grad_erms2_linear(p)) << what;
    EXPECT_EQ(g, winner_drive(site, p)) << what;
  };
  // Horizontal midpoint between {0,0} (center x=1) and {1,0} (x=3).
  expect_winner({2.0, 1.0, 0.0}, {0, 0}, "horizontal midpoint");
  // Vertical midpoint between {0,0} (center y=1) and {0,1} (y=3).
  expect_winner({1.0, 2.0, 0.0}, {0, 0}, "vertical midpoint");
  // Center of the 2×2 block: equidistant from all four corners.
  expect_winner({2.0, 2.0, 0.0}, {0, 0}, "block center (4-way tie)");
  // Midpoint between {1,0} and {1,1}: row tie at col 1, smaller row wins.
  expect_winner({3.0, 2.0, 0.0}, {1, 0}, "row tie at col 1");
  // Midpoint between {0,1} and {1,1}: col tie at row 1, smaller col wins.
  expect_winner({2.0, 3.0, 0.0}, {0, 1}, "col tie at row 1");
}

TEST(CageFieldModel, SetSitesFuzzHashedVsLinearEveryStep) {
  // Randomized set_sites sequences: single-site moves (the tow pattern),
  // duplicate creation/destruction, swaps, grows and shrinks. After every
  // step the hashed lookup must agree with the linear oracle and with a
  // fresh model at random points, every trap center, and exact pair
  // midpoints.
  CageFieldModel model = tie_model();
  Rng rng(424242);
  std::vector<GridCoord> sites;
  const auto rand_site = [&] {
    return GridCoord{static_cast<int>(rng.uniform_int(-2, 9)),
                     static_cast<int>(rng.uniform_int(-2, 9))};
  };
  for (int s = 0; s < 12; ++s) sites.push_back(rand_site());
  model.set_sites(sites);
  for (int step = 0; step < 160; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    const auto idx = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1));
    };
    if (op < 5) {
      sites[idx()] = rand_site();  // single move
    } else if (op < 7) {
      sites[idx()] = sites[idx()];  // duplicate an existing site
    } else if (op < 8) {
      std::swap(sites[idx()], sites[idx()]);  // reorder only
    } else if (op < 9 || sites.size() <= 2) {
      sites.push_back(rand_site());  // grow
    } else {
      sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(idx()));  // shrink
    }
    model.set_sites(sites);
    CageFieldModel fresh = tie_model();
    fresh.set_sites(sites);
    // Every trap center (membership through the drive field)...
    for (const GridCoord site : sites) {
      const Vec3 c = model.trap_center(site);
      ASSERT_EQ(model.grad_erms2(c), model.grad_erms2_linear(c)) << "step=" << step;
      ASSERT_EQ(model.grad_erms2(c), fresh.grad_erms2(c)) << "step=" << step;
    }
    // ...exact midpoints of site pairs (distance ties when equidistant)...
    for (int q = 0; q < 6; ++q) {
      const Vec3 a = model.trap_center(sites[idx()]);
      const Vec3 b = model.trap_center(sites[idx()]);
      const Vec3 mid{(a.x + b.x) * 0.5, (a.y + b.y) * 0.5, 0.0};
      ASSERT_EQ(model.grad_erms2(mid), model.grad_erms2_linear(mid)) << "step=" << step;
      ASSERT_EQ(model.grad_erms2(mid), fresh.grad_erms2(mid)) << "step=" << step;
    }
    // ...and random probes in and around the populated region.
    for (int q = 0; q < 10; ++q) {
      const Vec3 p{rng.uniform(-8.0, 24.0), rng.uniform(-8.0, 24.0),
                   rng.uniform(-1.0, 1.0)};
      ASSERT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p)) << "step=" << step;
      ASSERT_EQ(model.grad_erms2(p), fresh.grad_erms2(p)) << "step=" << step;
    }
  }
}

// Basin certificates (the integrator's exact period advance relies on them):
// a certified trap's drive must be the field at every point of the box.
void expect_basin_sound(const CageFieldModel& model, const Aabb& box,
                        const field::HarmonicCage& basin) {
  const Vec3 e = box.extent();
  for (int i = 0; i <= 4; ++i)
    for (int j = 0; j <= 4; ++j)
      for (int k = 0; k <= 4; ++k) {
        const Vec3 q{std::min(box.max.x, box.min.x + e.x * i / 4.0),
                     std::min(box.max.y, box.min.y + e.y * j / 4.0),
                     std::min(box.max.z, box.min.z + e.z * k / 4.0)};
        ASSERT_EQ(basin.grad_erms2(q), model.grad_erms2_linear(q)) << q;
        ASSERT_EQ(basin.grad_erms2(q), model.grad_erms2(q)) << q;
      }
}

TEST(CageFieldModel, HarmonicBasinCertifiesOnlyOneTrapBoxes) {
  // tie_model geometry: traps at odd integers, capture radius 3, so the
  // midpoint below is a true floating-point tie.
  CageFieldModel model = tie_model();
  EXPECT_FALSE(model.harmonic_basin({{0, 0, 0}, {0.1, 0.1, 0.1}}));  // no traps

  model.set_sites({{0, 0}, {1, 0}});
  const Vec3 a = model.trap_center({0, 0});  // (1, 1, 0)
  const Vec3 d{0.1, 0.1, 0.1};
  // A box around one trap: certified as that trap.
  const auto basin = model.harmonic_basin({a - d, a + d});
  ASSERT_TRUE(basin);
  EXPECT_EQ(basin->center, a);
  expect_basin_sound(model, {a - d, a + d}, *basin);
  // The exact midpoint (a tow-hop tie), and a box straddling it.
  const Vec3 mid{2.0, 1.0, 0.0};
  EXPECT_FALSE(model.harmonic_basin({mid, mid}));
  EXPECT_FALSE(model.harmonic_basin({mid - d, mid + d}));
  // Just on a's side of the bisector: certified.
  const Vec3 near_mid{1.8, 1.0, 0.0};
  EXPECT_TRUE(model.harmonic_basin({near_mid - d, near_mid + d}));
  // A box whose far corner leaves the capture radius.
  EXPECT_FALSE(model.harmonic_basin({a - Vec3{2.5, 2.0, 0.0}, a}));

  // Duplicate sites count as one trap.
  model.set_sites({{0, 0}, {0, 0}});
  EXPECT_TRUE(model.harmonic_basin({a - d, a + d}));
}

TEST(CageFieldModel, HarmonicBasinFuzzIsSound) {
  // Random site sets (with duplicates, and with a far background that
  // switches the candidate probe from the linear scan to the hash) and
  // random boxes near them: every certified box must match both gradient
  // paths on a 5×5×5 grid, and both answers must occur often.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  Rng rng(515);
  int certified = 0;
  int rejected = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    std::vector<GridCoord> sites;
    const auto n = rng.uniform_int(1, 5);
    for (std::int64_t i = 0; i < n; ++i)
      sites.push_back({static_cast<int>(rng.uniform_int(0, 7)),
                       static_cast<int>(rng.uniform_int(0, 7))});
    if (rng.bernoulli(0.2)) sites.push_back(sites.front());
    if (rng.bernoulli(0.5))
      for (int i = 0; i < 40; ++i) sites.push_back({i, 60});
    model.set_sites(sites);
    const Vec3 c = model.trap_center(sites[static_cast<std::size_t>(
                       rng.uniform_int(0, n - 1))]) +
                   Vec3{rng.uniform(-30e-6, 30e-6), rng.uniform(-30e-6, 30e-6),
                        rng.uniform(-10e-6, 10e-6)};
    const Vec3 half{rng.uniform(0.0, 10e-6), rng.uniform(0.0, 10e-6), rng.uniform(0.0, 5e-6)};
    const Aabb box{c - half, c + half};
    const auto basin = model.harmonic_basin(box);
    if (!basin) {
      ++rejected;
      continue;
    }
    ++certified;
    expect_basin_sound(model, box, *basin);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(certified, 200);
  EXPECT_GT(rejected, 200);
}

// Every point of a 5×5×5 grid over `box`, faces included, reads exactly zero
// drive on both gradient paths.
void expect_drive_free_sound(const CageFieldModel& model, const Aabb& box) {
  const Vec3 e = box.extent();
  for (int i = 0; i <= 4; ++i)
    for (int j = 0; j <= 4; ++j)
      for (int k = 0; k <= 4; ++k) {
        const Vec3 q{std::min(box.max.x, box.min.x + e.x * i / 4.0),
                     std::min(box.max.y, box.min.y + e.y * j / 4.0),
                     std::min(box.max.z, box.min.z + e.z * k / 4.0)};
        ASSERT_EQ(model.grad_erms2_linear(q), Vec3{}) << q;
        ASSERT_EQ(model.grad_erms2(q), Vec3{}) << q;
      }
}

TEST(CageFieldModel, DriveFreeCertifiesOnlyBoxesOutOfReach) {
  // tie_model geometry: trap {0, 0} at (1, 1, 0), capture radius 3, all
  // exact in floating point.
  CageFieldModel model = tie_model();
  EXPECT_TRUE(model.drive_free({{-5, -5, -5}, {5, 5, 5}}));  // no traps

  model.set_sites({{0, 0}});
  const Vec3 t = model.trap_center({0, 0});
  // A face at exactly the capture radius, on each side: grad_erms2 counts
  // the trap there as in range, so the box is not free.
  const double cap = model.capture_radius();
  const Aabb at_cap[] = {{{t.x + cap, -5, -5}, {9, 5, 5}},
                         {{-9, -5, -5}, {t.x - cap, 5, 5}},
                         {{-5, t.y + cap, -5}, {5, 9, 5}},
                         {{-5, -9, -5}, {5, t.y - cap, 5}},
                         {{-5, -5, t.z + cap}, {5, 5, 9}}};
  for (const Aabb& box : at_cap) {
    EXPECT_FALSE(model.drive_free(box)) << box.min << " " << box.max;
    const Vec3 face = box.clamp(t);
    EXPECT_NE(model.grad_erms2(face), Vec3{}) << face;
  }
  // One ulp farther: free.
  const Aabb beyond{{std::nextafter(t.x + cap, 10.0), -5, -5}, {9, 5, 5}};
  EXPECT_TRUE(model.drive_free(beyond));
  expect_drive_free_sound(model, beyond);
  // Both face planes within the capture radius, the corner beyond it: the
  // test is on the nearest point, not per axis.
  const Aabb corner{{t.x + 2.2, t.y + 2.2, -5}, {9, 9, 5}};
  EXPECT_TRUE(model.drive_free(corner));
  expect_drive_free_sound(model, corner);
  EXPECT_FALSE(model.drive_free({{t.x + 2.1, t.y + 2.1, -5}, {9, 9, 5}}));
  // A column over the trap is never free; a box above its reach is.
  EXPECT_FALSE(model.drive_free({{0, 0, 2.5}, {2, 2, 9}}));
  EXPECT_TRUE(model.drive_free({{0, 0, 3.5}, {2, 2, 9}}));
}

TEST(CageFieldModel, DriveFreeFuzzIsSound) {
  // Random site sets (with duplicates, and with a far background that
  // switches the candidate probe from the linear scan to the hash) and
  // random columns near them, some over the whole chamber height: every
  // certified box must read zero drive on both gradient paths on a 5×5×5
  // grid, and both answers must occur often.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  Rng rng(616);
  int certified = 0;
  int rejected = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    std::vector<GridCoord> sites;
    const auto n = rng.uniform_int(1, 5);
    for (std::int64_t i = 0; i < n; ++i)
      sites.push_back({static_cast<int>(rng.uniform_int(0, 7)),
                       static_cast<int>(rng.uniform_int(0, 7))});
    if (rng.bernoulli(0.2)) sites.push_back(sites.front());
    if (rng.bernoulli(0.5))
      for (int i = 0; i < 40; ++i) sites.push_back({i, 60});
    model.set_sites(sites);
    const Vec3 c = model.trap_center(sites[static_cast<std::size_t>(
                       rng.uniform_int(0, n - 1))]) +
                   Vec3{rng.uniform(-70e-6, 70e-6), rng.uniform(-70e-6, 70e-6),
                        rng.uniform(-30e-6, 30e-6)};
    const Vec3 half{rng.uniform(0.0, 10e-6), rng.uniform(0.0, 10e-6), rng.uniform(0.0, 20e-6)};
    Aabb box{c - half, c + half};
    if (rng.bernoulli(0.5)) {
      box.min.z = 0.0;
      box.max.z = 100e-6;
    }
    if (!model.drive_free(box)) {
      ++rejected;
      continue;
    }
    ++certified;
    expect_drive_free_sound(model, box);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(certified, 200);
  EXPECT_GT(rejected, 200);
}

// ---------------------------------------------------- manipulation engine ----

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
    cfg.cols = 32;
    cfg.rows = 32;
    device_ = std::make_unique<chip::BiochipDevice>(cfg);
    medium_ = physics::dep_buffer();
    cage_ = device_->calibrate_cage(5, 6);
    engine_ = std::make_unique<ManipulationEngine>(*device_, medium_, cage_, 30e-6);
  }

  physics::ParticleBody cell_at(GridCoord site) {
    const cell::ParticleSpec spec = cell::viable_lymphocyte();
    const Vec3 trap = engine_->field_model().trap_center(site);
    return {trap, spec.radius, spec.density,
            spec.dep_prefactor(medium_, device_->config().drive_frequency), 0};
  }

  std::unique_ptr<chip::BiochipDevice> device_;
  physics::Medium medium_;
  field::HarmonicCage cage_;
  std::unique_ptr<ManipulationEngine> engine_;
};

TEST_F(EngineTest, TowAtPaperSpeedRetainsCell) {
  physics::ParticleBody cell = cell_at({5, 5});
  std::vector<GridCoord> path;
  for (int c = 5; c <= 15; ++c) path.push_back({c, 5});
  Rng rng(21);
  const TowReport report = engine_->tow(cell, path, 0.4, rng);  // 50 µm/s
  EXPECT_TRUE(report.retained);
  EXPECT_EQ(report.steps, path.size());
  const Vec3 target = engine_->field_model().trap_center({15, 5});
  EXPECT_LT((report.final_position - target).norm(), 25e-6);
}

TEST_F(EngineTest, TowTooFastLosesCell) {
  physics::ParticleBody cell = cell_at({5, 5});
  std::vector<GridCoord> path;
  for (int c = 5; c <= 20; ++c) path.push_back({c, 5});
  Rng rng(22);
  // 10 ms per 20 µm hop = 2 mm/s: far beyond the ~200 µm/s holding limit.
  const TowReport report = engine_->tow(cell, path, 0.01, rng);
  EXPECT_FALSE(report.retained);
  EXPECT_LT(report.steps, path.size());
}

TEST_F(EngineTest, SettlePullsCellIntoTrap) {
  const GridCoord site{8, 8};
  physics::ParticleBody cell = cell_at(site);
  // Start sedimented on the chip floor, one third of a pitch off-center.
  cell.position = engine_->field_model().trap_center(site) +
                  Vec3{7e-6, 0, 0};
  cell.position.z = cell.radius * 1.05;
  engine_->field_model().set_sites({site});
  Rng rng(23);
  engine_->settle(cell, 3.0, rng);
  const Vec3 trap = engine_->field_model().trap_center(site);
  EXPECT_LT((cell.position - trap).norm(), 6e-6);
  EXPECT_GT(cell.position.z, 10e-6);  // levitated off the floor
}

TEST_F(EngineTest, NonAdjacentPathRejected) {
  physics::ParticleBody cell = cell_at({5, 5});
  Rng rng(24);
  EXPECT_THROW(engine_->tow(cell, {{5, 5}, {7, 5}}, 0.4, rng), PreconditionError);
}

// ---------------------------------------------------------------- platform ----

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest() {
    control::PlatformConfig cfg = control::PlatformConfig::paper_defaults();
    cfg.device.cols = 48;
    cfg.device.rows = 48;
    cfg.seed = 7;
    lab_ = std::make_unique<control::LabOnChipPlatform>(cfg);
  }
  std::unique_ptr<control::LabOnChipPlatform> lab_;
};

TEST_F(PlatformTest, LoadSampleCreatesBodies) {
  lab_->load_sample({{cell::viable_lymphocyte(), 8, 0.05}});
  EXPECT_EQ(lab_->sample().size(), 8u);
  EXPECT_EQ(lab_->bodies().size(), 8u);
  for (const auto& b : lab_->bodies()) EXPECT_LT(b.dep_prefactor, 0.0);
}

TEST_F(PlatformTest, DetectFindsLoadedCells) {
  lab_->load_sample({{cell::viable_lymphocyte(), 6, 0.05}});
  const auto dets = lab_->detect_cells(64);
  EXPECT_GE(dets.size(), 5u);  // allow one cluster-merge of near neighbors
  EXPECT_LE(dets.size(), 7u);
}

TEST_F(PlatformTest, TrapThenMoveEndToEnd) {
  lab_->load_sample({{cell::viable_lymphocyte(), 3, 0.05}});
  const auto cage = lab_->trap_cell(0);
  ASSERT_TRUE(cage.has_value());
  const GridCoord from = lab_->cages().site(*cage);
  const GridCoord to{from.col < 24 ? from.col + 8 : from.col - 8, from.row};
  const control::MoveResult mv = lab_->move_cell(*cage, to);
  EXPECT_TRUE(mv.success);
  EXPECT_EQ(lab_->cages().site(*cage), to);
  // Claim C3 embodied: electronics time is negligible vs. the tow.
  EXPECT_LT(mv.electronics_time, 1e-3 * mv.tow.elapsed);
  // The physical cell arrived too.
  const int body = *lab_->body_in_cage(*cage);
  const Vec3 trap{(to.col + 0.5) * 20e-6, (to.row + 0.5) * 20e-6,
                  lab_->unit_cage().center.z};
  EXPECT_LT((lab_->bodies()[static_cast<std::size_t>(body)].position - trap).norm(),
            25e-6);
}

TEST_F(PlatformTest, PdepParticleNotTrappable) {
  // Polystyrene beads at 100 kHz in this buffer are still nDEP; use a
  // conductive particle instead (pDEP at low frequency).
  cell::ParticleSpec conductive = cell::polystyrene_bead();
  conductive.name = "conductive_bead";
  conductive.dielectric.body.conductivity = 1.0;  // >> medium
  lab_->load_sample({{conductive, 2, 0.02}});
  EXPECT_FALSE(lab_->trap_cell(0).has_value());
}

TEST_F(PlatformTest, SecondTrapRespectsSeparation) {
  lab_->load_sample({{cell::viable_lymphocyte(), 2, 0.0}});
  // Force both cells to almost the same spot.
  lab_->bodies()[0].position = {500e-6, 500e-6, 6e-6};
  lab_->bodies()[1].position = {510e-6, 505e-6, 6e-6};
  const auto first = lab_->trap_cell(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(lab_->trap_cell(1).has_value());  // same/adjacent site blocked
}

TEST_F(PlatformTest, SitePeriodMatchesTowSpeed) {
  EXPECT_NEAR(lab_->site_period(), 20e-6 / 50e-6, 1e-12);
}

TEST_F(PlatformTest, RunAssayUsesDeviceGeometry) {
  const auto result = lab_->run_assay(cad::pcr_mix(2), cad::ChipResources{});
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(result.transport_time,
              static_cast<double>(result.transport_steps) * lab_->site_period(), 1e-9);
}

TEST_F(PlatformTest, MoveUnknownCageThrows) {
  lab_->load_sample({{cell::viable_lymphocyte(), 1, 0.0}});
  EXPECT_THROW(lab_->move_cell(123, {5, 5}), PreconditionError);
}

TEST(Platform, DeterministicAcrossRuns) {
  auto run_once = [] {
    control::PlatformConfig cfg = control::PlatformConfig::paper_defaults();
    cfg.device.cols = 32;
    cfg.device.rows = 32;
    cfg.seed = 99;
    control::LabOnChipPlatform lab(cfg);
    lab.load_sample({{cell::viable_lymphocyte(), 4, 0.05}});
    return lab.bodies()[2].position;
  };
  const Vec3 a = run_once();
  const Vec3 b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace biochip::core
