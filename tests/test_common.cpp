// Tests for the common substrate: units, geometry, RNG, grids, linear
// algebra, statistics, and table formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/grid.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace biochip {
namespace {

using namespace biochip::units;

// ---------------------------------------------------------------- units ----

TEST(Units, LengthLiteralsScaleToMeters) {
  EXPECT_DOUBLE_EQ(20.0_um, 2e-5);
  EXPECT_DOUBLE_EQ(1.5_mm, 1.5e-3);
  EXPECT_DOUBLE_EQ(100.0_nm, 1e-7);
  EXPECT_DOUBLE_EQ(3_um, 3e-6);  // integer literal overload
}

TEST(Units, TimeAndFrequencyLiterals) {
  EXPECT_DOUBLE_EQ(2.0_ms, 2e-3);
  EXPECT_DOUBLE_EQ(1.0_MHz, 1e6);
  EXPECT_DOUBLE_EQ(2.5_day, 2.5 * 86400.0);
  EXPECT_DOUBLE_EQ(1.0_hour, 3600.0);
}

TEST(Units, VolumeLiteralsMapToCubicMeters) {
  EXPECT_DOUBLE_EQ(4.0_uL, 4e-9);
  EXPECT_NEAR(1.0_L, 1e-3, 1e-18);
}

TEST(Units, CelsiusConversion) {
  EXPECT_DOUBLE_EQ(celsius(25.0), 298.15);
  EXPECT_DOUBLE_EQ(celsius(0.0), 273.15);
}

TEST(Units, PhysicalConstantsSane) {
  EXPECT_NEAR(constants::epsilon0, 8.854e-12, 1e-14);
  EXPECT_NEAR(constants::kB, 1.381e-23, 1e-25);
  EXPECT_GT(constants::eps_r_water, 70.0);
}

// ------------------------------------------------------------- geometry ----

TEST(Geometry, Vec3Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_EQ(a.cross(b), (Vec3{-3, 6, -3}));
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
}

TEST(Geometry, Vec2NormAndDot) {
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{1, 0}).dot({0, 1}), 0.0);
}

TEST(Geometry, GridCoordDistances) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
  EXPECT_EQ(chebyshev({0, 0}, {3, 4}), 4);
  EXPECT_EQ(chebyshev({2, 2}, {2, 2}), 0);
}

TEST(Geometry, AabbContainsAndVolume) {
  const Aabb box{{0, 0, 0}, {1, 2, 3}};
  EXPECT_TRUE(box.contains({0.5, 1.0, 2.9}));
  EXPECT_FALSE(box.contains({1.5, 1.0, 1.0}));
  EXPECT_DOUBLE_EQ(box.volume(), 6.0);
  EXPECT_EQ(box.center(), (Vec3{0.5, 1.0, 1.5}));
}

TEST(Geometry, AabbClampPullsPointsInside) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(box.clamp({2, -1, 0.5}), (Vec3{1, 0, 0.5}));
}

TEST(Geometry, RectOverlapIsExclusiveOfTouching) {
  const Rect a{{0, 0}, {1, 1}};
  const Rect b{{1, 0}, {2, 1}};  // shares an edge only
  EXPECT_FALSE(a.overlaps(b));
  const Rect c{{0.5, 0.5}, {1.5, 1.5}};
  EXPECT_TRUE(a.overlaps(c));
}

TEST(Geometry, EmptyRectHasZeroArea) {
  const Rect inverted{{1, 1}, {0, 0}};
  EXPECT_DOUBLE_EQ(inverted.area(), 0.0);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsCounterBased) {
  // fork(id) depends only on (parent state, id): it never advances the
  // parent, and the derivation order is irrelevant.
  Rng parent(99);
  Rng a7 = parent.fork(7);
  Rng a3 = parent.fork(3);
  Rng b3 = parent.fork(3);
  Rng b7 = parent.fork(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a3(), b3());
    EXPECT_EQ(a7(), b7());
  }
  // Parent stream untouched by the forks.
  Rng untouched(99);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(parent(), untouched());
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(4242);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  Rng c = parent.fork(0xFFFFFFFFFFFFFFFFull);
  int same_ab = 0, same_ac = 0, same_ap = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a(), vb = b(), vc = c(), vp = parent();
    if (va == vb) ++same_ab;
    if (va == vc) ++same_ac;
    if (va == vp) ++same_ap;
  }
  EXPECT_LT(same_ab, 2);
  EXPECT_LT(same_ac, 2);
  EXPECT_LT(same_ap, 2);
}

TEST(Rng, ForkAndSplitFamiliesDiverge) {
  Rng a(5), b(5);
  Rng forked = a.fork(0);
  Rng split = b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (forked() == split()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  bool seen_lo = false, seen_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen_lo |= (v == 3);
    seen_hi |= (v == 7);
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), PreconditionError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMeanCvMatchesRequestedMoments) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 60000; ++i) s.add(rng.lognormal_mean_cv(10.0, 0.3));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.3, 0.01);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng rng(23);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(5.0, 0.0), 5.0);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(29);
  RunningStats s;
  for (int i = 0; i < 40000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.015);
}

TEST(Rng, BernoulliClampsProbability) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, PoissonMeanAndVarianceMatch) {
  Rng rng(41);
  RunningStats small, large;
  for (int i = 0; i < 30000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.05);
  EXPECT_NEAR(small.variance(), 3.0, 0.15);
  EXPECT_NEAR(large.mean(), 80.0, 0.35);
}

// The law primitives of the sparse sense, under the rules of the exact
// period advance's harness: mean within 5 SE, |ln var ratio| within
// 5·√(4/(N−1)), and a one-sample KS statistic D below its α = 1e-4
// critical value.
TEST(Rng, GeometricMeanAndVarianceMatch) {
  const std::size_t n = 40000;
  const double dn = static_cast<double>(n);
  std::uint64_t seed = 53;
  for (const double p : {0.5, 0.01, 3.2e-5}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    Rng rng(seed++);
    RunningStats s;
    for (std::size_t i = 0; i < n; ++i) s.add(static_cast<double>(rng.geometric(p)));
    const double mean = (1.0 - p) / p;
    const double var = (1.0 - p) / (p * p);
    EXPECT_LE(std::fabs(s.mean() - mean), 5.0 * std::sqrt(var / dn));
    EXPECT_LE(std::fabs(std::log(s.variance() / var)), 5.0 * std::sqrt(4.0 / (dn - 1.0)));
  }
}

TEST(Rng, GeometricEdges) {
  Rng rng(59);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
  // A gap beyond 2^64 saturates.
  EXPECT_EQ(rng.geometric(1e-300), ~std::uint64_t{0});
  for (const double p : {0.0, -0.1, 1.5, std::nan("")})
    EXPECT_THROW(rng.geometric(p), PreconditionError) << p;
}

TEST(Rng, NormalTailMatchesConditionalLaw) {
  const std::size_t n = 40000;
  const double critical =
      std::sqrt(-std::log(1e-4 / 2.0) / 2.0) / std::sqrt(static_cast<double>(n));
  std::uint64_t seed = 61;
  // 0.25 takes the rejection branch, the others Marsaglia's.
  for (const double k : {0.25, 1.0, 4.0, 6.0}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    Rng rng(seed++);
    // P(Z <= x | Z >= k) = 1 − erfc(x/√2) / erfc(k/√2).
    const double tail = std::erfc(k / std::sqrt(2.0));
    std::vector<double> cdf(n);
    for (double& u : cdf) {
      const double x = rng.normal_tail(k);
      ASSERT_GE(x, k);
      u = 1.0 - std::erfc(x / std::sqrt(2.0)) / tail;
    }
    std::sort(cdf.begin(), cdf.end());
    double d = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      d = std::max({d, static_cast<double>(i + 1) / static_cast<double>(n) - cdf[i],
                    cdf[i] - static_cast<double>(i) / static_cast<double>(n)});
    EXPECT_LT(d, critical);
  }
}

TEST(Rng, NormalTailRejectsBadBounds) {
  Rng rng(67);
  for (const double k : {0.0, -1.0, std::nan(""), HUGE_VAL})
    EXPECT_THROW(rng.normal_tail(k), PreconditionError) << k;
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(43);
  Rng child = parent.split();
  RunningStats corr;
  double last_child = child.uniform();
  for (int i = 0; i < 1000; ++i) {
    const double p = parent.uniform();
    const double c = child.uniform();
    corr.add((p - 0.5) * (last_child - 0.5));
    last_child = c;
  }
  EXPECT_NEAR(corr.mean(), 0.0, 0.02);
}

// ----------------------------------------------------------------- grid ----

TEST(Grid2, ConstructionAndIndexing) {
  Grid2 g(4, 3, 1e-6, 2.5);
  EXPECT_EQ(g.nx(), 4u);
  EXPECT_EQ(g.ny(), 3u);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g.at(3, 2), 2.5);
  g.at(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(g.at(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
  EXPECT_DOUBLE_EQ(g.min(), 2.5);
}

TEST(Grid2, OutOfRangeIndexThrows) {
  Grid2 g(2, 2, 1.0);
  EXPECT_THROW(g.at(2, 0), PreconditionError);
  EXPECT_THROW(g.at(0, 2), PreconditionError);
}

TEST(Grid2, BilinearInterpolationExactOnLinearField) {
  Grid2 g(5, 5, 1.0);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      g.at(i, j) = 2.0 * static_cast<double>(i) + 3.0 * static_cast<double>(j);
  EXPECT_NEAR(g.sample({1.5, 2.5}), 2.0 * 1.5 + 3.0 * 2.5, 1e-12);
  EXPECT_NEAR(g.sample({0.25, 3.75}), 2.0 * 0.25 + 3.0 * 3.75, 1e-12);
}

TEST(Grid2, SampleClampsOutsideDomain) {
  Grid2 g(3, 3, 1.0);
  g.at(0, 0) = 1.0;
  g.at(2, 2) = 9.0;
  EXPECT_DOUBLE_EQ(g.sample({-5.0, -5.0}), 1.0);
  EXPECT_DOUBLE_EQ(g.sample({50.0, 50.0}), 9.0);
}

TEST(Grid3, TrilinearInterpolationExactOnLinearField) {
  Grid3 g(4, 4, 4, 0.5);
  for (std::size_t k = 0; k < 4; ++k)
    for (std::size_t j = 0; j < 4; ++j)
      for (std::size_t i = 0; i < 4; ++i)
        g.at(i, j, k) = static_cast<double>(i) - 2.0 * static_cast<double>(j) +
                        0.5 * static_cast<double>(k);
  // p in physical coordinates: node index * spacing.
  const double v = g.sample({0.75, 1.25, 0.6});
  const double expect = (0.75 / 0.5) - 2.0 * (1.25 / 0.5) + 0.5 * (0.6 / 0.5);
  EXPECT_NEAR(v, expect, 1e-12);
}

TEST(Grid3, GradientOfLinearFieldIsConstant) {
  Grid3 g(6, 6, 6, 1e-5);
  const double h = g.spacing();
  for (std::size_t k = 0; k < 6; ++k)
    for (std::size_t j = 0; j < 6; ++j)
      for (std::size_t i = 0; i < 6; ++i)
        g.at(i, j, k) = 3.0 * (static_cast<double>(i) * h) -
                        1.0 * (static_cast<double>(j) * h) +
                        2.0 * (static_cast<double>(k) * h);
  const Vec3 grad = g.gradient({2.5 * h, 2.5 * h, 2.5 * h});
  EXPECT_NEAR(grad.x, 3.0, 1e-9);
  EXPECT_NEAR(grad.y, -1.0, 1e-9);
  EXPECT_NEAR(grad.z, 2.0, 1e-9);
}

TEST(Grid3, RejectsZeroSpacing) {
  EXPECT_THROW(Grid3(2, 2, 2, 0.0), PreconditionError);
}

// --------------------------------------------------------------- linalg ----

TEST(Linalg, DenseSolveRecoversKnownSolution) {
  Matrix a(3, 3);
  a.at(0, 0) = 4;  a.at(0, 1) = 1;  a.at(0, 2) = 0;
  a.at(1, 0) = 1;  a.at(1, 1) = 3;  a.at(1, 2) = 1;
  a.at(2, 0) = 0;  a.at(2, 1) = 1;  a.at(2, 2) = 2;
  const std::vector<double> x_true{1.0, -2.0, 3.0};
  const std::vector<double> b = a * x_true;
  const std::vector<double> x = solve_dense(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Linalg, DenseSolveNeedsPivoting) {
  Matrix a(2, 2);
  a.at(0, 0) = 0;  a.at(0, 1) = 1;
  a.at(1, 0) = 1;  a.at(1, 1) = 0;
  const std::vector<double> x = solve_dense(a, {5.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(Linalg, SingularMatrixThrows) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;  a.at(0, 1) = 2;
  a.at(1, 0) = 2;  a.at(1, 1) = 4;
  EXPECT_THROW(solve_dense(a, {1.0, 2.0}), NumericError);
}

TEST(Linalg, TridiagonalSolveMatchesDense) {
  const std::vector<double> lower{1.0, 1.0, 1.0};
  const std::vector<double> diag{4.0, 4.0, 4.0, 4.0};
  const std::vector<double> upper{1.0, 1.0, 1.0};
  const std::vector<double> rhs{5.0, 6.0, 6.0, 5.0};
  const std::vector<double> x = solve_tridiagonal(lower, diag, upper, rhs);
  // Verify residual instead of hard-coding the solution.
  for (std::size_t i = 0; i < 4; ++i) {
    double lhs = diag[i] * x[i];
    if (i > 0) lhs += lower[i - 1] * x[i - 1];
    if (i < 3) lhs += upper[i] * x[i + 1];
    EXPECT_NEAR(lhs, rhs[i], 1e-12);
  }
}

TEST(Linalg, LineFitRecoversSlopeInterceptR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const LineFit f = fit_line(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-10);
  EXPECT_NEAR(f.slope, 2.0, 1e-10);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Linalg, PowerFitRecoversExponent) {
  std::vector<double> x, y;
  for (int i = 1; i <= 30; ++i) {
    x.push_back(i);
    y.push_back(5.0 * std::pow(static_cast<double>(i), 1.5));
  }
  const PowerFit f = fit_power(x, y);
  EXPECT_NEAR(f.exponent, 1.5, 1e-9);
  EXPECT_NEAR(f.coefficient, 5.0, 1e-6);
}

TEST(Linalg, PowerFitRejectsNonPositive) {
  EXPECT_THROW(fit_power({1.0, -2.0}, {1.0, 2.0}), PreconditionError);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, RunningStatsBasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, MergeEqualsSequential) {
  RunningStats all, a, b;
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, PercentilesInterpolate) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-12);
  EXPECT_NEAR(p.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(p.percentile(100.0), 100.0, 1e-12);
  EXPECT_NEAR(p.percentile(90.0), 90.1, 1e-9);
}

TEST(Stats, PercentileOnEmptyThrows) {
  Percentiles p;
  EXPECT_THROW(p.median(), PreconditionError);
}

TEST(Stats, HistogramBinsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  for (double v : {0.5, 1.5, 1.7, 9.99, -1.0, 10.0, 25.0}) h.add(v);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignedPrintContainsAllCells) {
  Table t({"node", "vdd"});
  t.row().cell("0.35um").cell(3.3, 1);
  t.row().cell("90nm").cell(1.0, 1);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("0.35um"), std::string::npos);
  EXPECT_NE(s.find("3.3"), std::string::npos);
  EXPECT_NE(s.find("90nm"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCells) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("plain");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("1");
  EXPECT_THROW(t.cell("2"), PreconditionError);
}

TEST(Table, SiFormatPicksPrefixes) {
  EXPECT_EQ(si_format(2e-5, "m", 3), "20 um");
  EXPECT_EQ(si_format(4.1e-9, "m3", 3), "4.1 nm3");
  EXPECT_EQ(si_format(1.5e6, "Hz", 3), "1.5 MHz");
}

}  // namespace
}  // namespace biochip
