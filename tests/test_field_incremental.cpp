// Oracle-equivalence harness for the incremental (dirty-window) field path:
// seeded random cage-hop fuzz across mixed tile shapes, checking after every
// step that the tracked potential stays within the agreement budget of a
// cold full solve and is bitwise equal to it at re-anchor ticks.
//
// BIOCHIP_LONGFUZZ=<n> multiplies the fuzz sequence count (the `longfuzz`
// ctest label runs with n=10; the default tier-1 budget stays short).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "field/incremental.hpp"

namespace biochip::field {
namespace {

constexpr double kPitch = 20e-6;

// Agreement budget [V per volt of drive] of a windowed step vs the
// full-solve oracle at window radius 2.5 pitches. The exterior correction a
// window freezes decays like a dipole field (~(pitch/r)^3 of the drive
// change — algebraic, not exponential), so the budget is set by the radius
// policy, and the re-anchor cadence bounds how many stale exteriors can
// accumulate between exact states (docs/perf.md, "Incremental field
// updates"). Calibrated with ~2x headroom over the fuzz-observed worst case.
constexpr double kAgreementTol = 8e-2;

struct TileShape {
  int cols;
  int rows;
  int npp;              ///< grid nodes per electrode pitch
  double height_pitches;  ///< chamber height in pitch lengths
};

std::vector<Rect> tile_footprints(int cols, int rows, double fill = 0.8) {
  std::vector<Rect> out;
  out.reserve(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows));
  const double half = 0.5 * kPitch * fill;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const double cx = (static_cast<double>(c) + 0.5) * kPitch;
      const double cy = (static_cast<double>(r) + 0.5) * kPitch;
      out.push_back({{cx - half, cy - half}, {cx + half, cy + half}});
    }
  return out;
}

ChamberDomain tile_domain(const TileShape& s) {
  ChamberDomain d;
  d.spacing = kPitch / static_cast<double>(s.npp);
  d.width_x = static_cast<double>(s.cols) * kPitch;
  d.width_y = static_cast<double>(s.rows) * kPitch;
  d.height = s.height_pitches * kPitch;
  return d;
}

SolverOptions tracker_options(std::size_t reanchor_period = 8) {
  SolverOptions opts;
  opts.tolerance = 1e-8;
  opts.incremental.tolerance = 1e-8;
  opts.incremental.window_radius_pitches = 2.5;
  opts.incremental.reanchor_period = reanchor_period;
  return opts;
}

std::size_t longfuzz_factor() {
  const char* env = std::getenv("BIOCHIP_LONGFUZZ");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v > 1 ? static_cast<std::size_t>(v) : 1;
}

double max_abs_diff(const Grid3& a, const Grid3& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t n = 0; n < a.size(); ++n)
    worst = std::max(worst, std::abs(a.data()[n] - b.data()[n]));
  return worst;
}

bool bitwise_equal(const Grid3& a, const Grid3& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t n = 0; n < a.size(); ++n)
    if (a.data()[n] != b.data()[n]) return false;
  return true;
}

/// Random cage-hop drive generator: `cages` electrodes driven, one hopping
/// to a free lateral neighbor per step; occasionally a cage's amplitude
/// flips between 1.0 and 0.6 V instead (a value change without a move).
struct HopFuzz {
  HopFuzz(int cols, int rows, std::size_t cages, Rng rng)
      : cols_(cols), rows_(rows), rng_(rng) {
    drive.assign(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows), 0.0);
    while (pos_.size() < cages) {
      const int c = static_cast<int>(rng_.uniform_int(0, cols - 1));
      const int r = static_cast<int>(rng_.uniform_int(0, rows - 1));
      if (!occupied(c, r)) {
        pos_.push_back({c, r});
        amp_.push_back(1.0);
      }
    }
    write_drive();
  }

  void step() {
    const std::size_t who =
        static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(pos_.size()) - 1));
    if (rng_.bernoulli(0.2)) {
      amp_[who] = amp_[who] == 1.0 ? 0.6 : 1.0;
    } else {
      static constexpr int dc[4] = {1, -1, 0, 0};
      static constexpr int dr[4] = {0, 0, 1, -1};
      const std::size_t dir = static_cast<std::size_t>(rng_.uniform_int(0, 3));
      const int nc = pos_[who].first + dc[dir];
      const int nr = pos_[who].second + dr[dir];
      if (nc >= 0 && nc < cols_ && nr >= 0 && nr < rows_ && !occupied(nc, nr))
        pos_[who] = {nc, nr};
    }
    write_drive();
  }

  std::vector<double> drive;

 private:
  bool occupied(int c, int r) const {
    for (const auto& p : pos_)
      if (p.first == c && p.second == r) return true;
    return false;
  }
  void write_drive() {
    std::fill(drive.begin(), drive.end(), 0.0);
    for (std::size_t n = 0; n < pos_.size(); ++n)
      drive[static_cast<std::size_t>(pos_[n].second) * static_cast<std::size_t>(cols_) +
            static_cast<std::size_t>(pos_[n].first)] = amp_[n];
  }

  int cols_;
  int rows_;
  Rng rng_;
  std::vector<std::pair<int, int>> pos_;
  std::vector<double> amp_;
};

// ------------------------------------------------------------ exactness ----

TEST(IncrementalField, FirstUpdateAndReanchorsBitwiseEqualOracle) {
  const TileShape shape{5, 5, 4, 2.0};
  IncrementalPotential inc(tile_domain(shape), tile_footprints(shape.cols, shape.rows),
                           /*lid_present=*/false, kPitch, tracker_options(4));
  HopFuzz fuzz(shape.cols, shape.rows, 3, Rng(101));

  std::size_t reanchors = 0;
  for (int step = 0; step < 12; ++step) {
    const auto rep = inc.update(fuzz.drive);
    ASSERT_TRUE(rep.stats.converged) << "step " << step;
    if (step == 0) {
      EXPECT_TRUE(rep.reanchored);  // first call primes with a full solve
    }
    if (rep.reanchored) {
      ++reanchors;
      EXPECT_DOUBLE_EQ(rep.window_fraction, 1.0);
      // The re-anchor restarts from a zeroed interior, so it must reproduce
      // the independent cold oracle bit for bit — not just within tolerance.
      EXPECT_TRUE(bitwise_equal(inc.potential(), inc.oracle())) << "step " << step;
    }
    fuzz.step();
  }
  // Period 4: the priming solve plus a cadence re-anchor every 4th update.
  EXPECT_GE(reanchors, 3u);
}

TEST(IncrementalField, ExplicitReanchorRestoresExactEquality) {
  const TileShape shape{4, 4, 4, 2.0};
  IncrementalPotential inc(tile_domain(shape), tile_footprints(shape.cols, shape.rows),
                           false, kPitch, tracker_options(0));  // 0 = never auto-anchor
  HopFuzz fuzz(shape.cols, shape.rows, 2, Rng(202));
  inc.update(fuzz.drive);
  for (int step = 0; step < 6; ++step) {
    fuzz.step();
    inc.update(fuzz.drive);
  }
  // Windowed drift is bounded but (in general) nonzero...
  EXPECT_LE(max_abs_diff(inc.potential(), inc.oracle()), kAgreementTol);
  // ...and a forced re-anchor erases it exactly.
  const SolveStats stats = inc.reanchor();
  EXPECT_TRUE(stats.converged);
  EXPECT_TRUE(bitwise_equal(inc.potential(), inc.oracle()));
}

TEST(IncrementalField, AccountingSeparatesWindowedFromFullSolves) {
  const TileShape shape{6, 6, 4, 2.0};
  IncrementalPotential inc(tile_domain(shape), tile_footprints(shape.cols, shape.rows),
                           false, kPitch, tracker_options(0));
  HopFuzz fuzz(shape.cols, shape.rows, 2, Rng(303));
  inc.update(fuzz.drive);  // full solve
  EXPECT_EQ(inc.accounting().solves, 1u);
  EXPECT_EQ(inc.accounting().window_solves, 0u);

  std::size_t effective = 0;
  for (int step = 0; step < 8; ++step) {
    fuzz.step();
    const auto rep = inc.update(fuzz.drive);
    if (rep.changed > 0) ++effective;
    EXPECT_FALSE(rep.reanchored);
  }
  EXPECT_EQ(inc.accounting().solves, 1u);  // no further full solves
  EXPECT_GE(inc.accounting().window_solves, effective);
  // A single-cage hop touches a small fraction of the tile.
  const double mean_fraction = inc.accounting().window_fraction_sum /
                               static_cast<double>(inc.accounting().window_solves);
  EXPECT_LT(mean_fraction, 0.75);
  EXPECT_GT(mean_fraction, 0.0);
}

// ------------------------------------------------------------------ fuzz ----

TEST(IncrementalFuzz, CageHopSequencesMatchOracleOnMixedTiles) {
  const std::vector<TileShape> shapes{
      {4, 4, 4, 2.0}, {6, 3, 3, 1.5}, {5, 5, 2, 2.0}};
  const std::size_t sequences = 8 * longfuzz_factor();
  const int steps = 25;

  double worst = 0.0;
  const Rng base(20260807);
  for (std::size_t sh = 0; sh < shapes.size(); ++sh) {
    const TileShape& shape = shapes[sh];
    for (std::size_t seq = 0; seq < sequences; ++seq) {
      IncrementalPotential inc(tile_domain(shape),
                               tile_footprints(shape.cols, shape.rows), false,
                               kPitch, tracker_options(8));
      HopFuzz fuzz(shape.cols, shape.rows, 1 + seq % 3, base.fork(sh).fork(seq));
      for (int step = 0; step < steps; ++step) {
        const auto rep = inc.update(fuzz.drive);
        ASSERT_TRUE(rep.stats.converged)
            << "shape " << sh << " seq " << seq << " step " << step;
        const double err = max_abs_diff(inc.potential(), inc.oracle());
        worst = std::max(worst, err);
        if (rep.reanchored) {
          ASSERT_EQ(err, 0.0) << "shape " << sh << " seq " << seq << " step " << step;
        } else {
          ASSERT_LE(err, kAgreementTol)
              << "shape " << sh << " seq " << seq << " step " << step;
        }
        fuzz.step();
      }
    }
  }
  RecordProperty("worst_abs_error", std::to_string(worst));
}

// The no-op contract under fuzz: replaying the same drive is bitwise inert
// and does not advance the re-anchor cadence.
TEST(IncrementalFuzz, RepeatedDriveIsBitwiseInert) {
  const TileShape shape{5, 4, 3, 2.0};
  IncrementalPotential inc(tile_domain(shape), tile_footprints(shape.cols, shape.rows),
                           false, kPitch, tracker_options(3));
  // Explicit drive sequence (guaranteed-effective changes, unlike a random
  // hop that can bounce off a wall and leave the drive unchanged).
  std::vector<double> drive(inc.electrode_count(), 0.0);
  drive[7] = 1.0;
  inc.update(drive);  // priming anchor
  drive[7] = 0.0;
  drive[8] = 1.0;
  inc.update(drive);  // effective update #1 since the anchor

  const Grid3 before = inc.potential();
  const SolveAccounting acct = inc.accounting();
  for (int n = 0; n < 5; ++n) {
    const auto rep = inc.update(drive);  // identical drive, repeatedly
    EXPECT_EQ(rep.changed, 0u);
    EXPECT_FALSE(rep.reanchored);
    EXPECT_EQ(rep.windows, 0u);
  }
  EXPECT_TRUE(bitwise_equal(inc.potential(), before));
  EXPECT_EQ(inc.accounting().solves, acct.solves);
  EXPECT_EQ(inc.accounting().window_solves, acct.window_solves);

  // The next effective updates land on the original cadence slots: #2 is
  // still windowed, #3 hits the period-3 re-anchor.
  drive[8] = 0.6;
  EXPECT_FALSE(inc.update(drive).reanchored);
  drive[8] = 1.0;
  EXPECT_TRUE(inc.update(drive).reanchored);
}

}  // namespace
}  // namespace biochip::field
