#pragma once
/// \file grid.hpp
/// \brief Dense 2D/3D scalar grids with uniform spacing.
///
/// `Grid2` / `Grid3` are the storage for field solves and sensor frames.
/// Indices are (i,j[,k]) with i along x (fastest varying in memory), j along
/// y, k along z; `spacing` is the physical distance between nodes.

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"

namespace biochip {

/// Dense 2D grid of doubles.
class Grid2 {
 public:
  Grid2() = default;
  /// nx, ny: node counts (>=1). spacing: node pitch [m]. init: fill value.
  Grid2(std::size_t nx, std::size_t ny, double spacing, double init = 0.0);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t size() const { return data_.size(); }
  double spacing() const { return spacing_; }

  double& at(std::size_t i, std::size_t j) { return data_[index(i, j)]; }
  double at(std::size_t i, std::size_t j) const { return data_[index(i, j)]; }

  /// Unchecked accessors for verified hot loops (solver sweeps, sensor scans):
  /// bounds are a debug-only contract, compiled out under NDEBUG.
  double& at_unchecked(std::size_t i, std::size_t j) {
    return data_[index_unchecked(i, j)];
  }
  double at_unchecked(std::size_t i, std::size_t j) const {
    return data_[index_unchecked(i, j)];
  }

  /// Bilinear interpolation at physical position p (origin at node (0,0)).
  /// Positions outside the grid are clamped to the boundary.
  double sample(Vec2 p) const;

  double min() const;
  double max() const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  std::size_t index(std::size_t i, std::size_t j) const {
    BIOCHIP_REQUIRE(i < nx_ && j < ny_, "Grid2 index out of range");
    return j * nx_ + i;
  }
  std::size_t index_unchecked(std::size_t i, std::size_t j) const {
    BIOCHIP_DBG_REQUIRE(i < nx_ && j < ny_, "Grid2 index out of range");
    return j * nx_ + i;
  }

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  double spacing_ = 0.0;
  std::vector<double> data_;
};

/// Dense 3D grid of doubles.
class Grid3 {
 public:
  Grid3() = default;
  Grid3(std::size_t nx, std::size_t ny, std::size_t nz, double spacing, double init = 0.0);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t size() const { return data_.size(); }
  double spacing() const { return spacing_; }

  double& at(std::size_t i, std::size_t j, std::size_t k) { return data_[index(i, j, k)]; }
  double at(std::size_t i, std::size_t j, std::size_t k) const { return data_[index(i, j, k)]; }

  /// Unchecked accessors for verified hot loops (solver sweeps): bounds are a
  /// debug-only contract, compiled out under NDEBUG.
  double& at_unchecked(std::size_t i, std::size_t j, std::size_t k) {
    return data_[index_unchecked(i, j, k)];
  }
  double at_unchecked(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[index_unchecked(i, j, k)];
  }

  /// Memory strides for hand-written stencil loops over `data()`:
  /// node (i,j,k) lives at i + j*stride_y() + k*stride_z().
  std::size_t stride_y() const { return nx_; }
  std::size_t stride_z() const { return nx_ * ny_; }

  /// True when the two grids have identical node counts per axis.
  bool same_shape(const Grid3& o) const {
    return nx_ == o.nx_ && ny_ == o.ny_ && nz_ == o.nz_;
  }

  /// Trilinear interpolation at physical position p (origin at node (0,0,0)).
  /// Positions outside the grid are clamped to the boundary.
  double sample(Vec3 p) const;

  /// Central-difference gradient at physical position p (one-sided at edges).
  Vec3 gradient(Vec3 p) const;

  void fill(double v);
  double min() const;
  double max() const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  std::size_t index(std::size_t i, std::size_t j, std::size_t k) const {
    BIOCHIP_REQUIRE(i < nx_ && j < ny_ && k < nz_, "Grid3 index out of range");
    return (k * ny_ + j) * nx_ + i;
  }
  std::size_t index_unchecked(std::size_t i, std::size_t j, std::size_t k) const {
    BIOCHIP_DBG_REQUIRE(i < nx_ && j < ny_ && k < nz_, "Grid3 index out of range");
    return (k * ny_ + j) * nx_ + i;
  }

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::size_t nz_ = 0;
  double spacing_ = 0.0;
  std::vector<double> data_;
};

}  // namespace biochip
