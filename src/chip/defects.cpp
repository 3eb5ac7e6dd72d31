#include "chip/defects.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "chip/actuation.hpp"

namespace biochip::chip {

DefectMap::DefectMap(const ElectrodeArray& array)
    : cols_(array.cols()), rows_(array.rows()),
      states_(array.electrode_count(), PixelState::kOk) {}

PixelState DefectMap::state(GridCoord c) const {
  BIOCHIP_REQUIRE(c.col >= 0 && c.col < cols_ && c.row >= 0 && c.row < rows_,
                  "defect map coordinate out of range");
  return states_[static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c.col)];
}

void DefectMap::set_state(GridCoord c, PixelState s) {
  BIOCHIP_REQUIRE(c.col >= 0 && c.col < cols_ && c.row >= 0 && c.row < rows_,
                  "defect map coordinate out of range");
  states_[static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_) +
          static_cast<std::size_t>(c.col)] = s;
}

std::size_t DefectMap::defect_count() const {
  std::size_t n = 0;
  for (PixelState s : states_)
    if (s != PixelState::kOk) ++n;
  return n;
}

DefectMap sample_defects(const ElectrodeArray& array, double defect_probability,
                         Rng& rng) {
  BIOCHIP_REQUIRE(defect_probability >= 0.0 && defect_probability <= 1.0,
                  "defect probability must be in [0,1]");
  DefectMap map(array);
  static constexpr PixelState kKinds[3] = {
      PixelState::kStuckBackground, PixelState::kStuckCage, PixelState::kDead};
  for (int r = 0; r < array.rows(); ++r)
    for (int c = 0; c < array.cols(); ++c)
      if (rng.bernoulli(defect_probability))
        map.set_state({c, r},
                      kKinds[static_cast<std::size_t>(rng.uniform_int(0, 2))]);
  return map;
}

bool site_usable(const ElectrodeArray& array, const DefectMap& defects, GridCoord site,
                 int ring) {
  BIOCHIP_REQUIRE(ring >= 0, "ring must be non-negative");
  for (int dr = -ring; dr <= ring; ++dr)
    for (int dc = -ring; dc <= ring; ++dc) {
      const GridCoord c{site.col + dc, site.row + dr};
      if (!array.contains(c)) return false;  // edge sites have no closed wall
      if (defects.state(c) != PixelState::kOk) return false;
    }
  return true;
}

double usable_cage_fraction(const ElectrodeArray& array, const DefectMap& defects,
                            int spacing, int ring) {
  const CageLattice lattice = cage_lattice(array, spacing);
  if (lattice.sites.empty()) return 0.0;
  std::size_t usable = 0;
  for (const GridCoord site : lattice.sites)
    if (site_usable(array, defects, site, ring)) ++usable;
  return static_cast<double>(usable) / static_cast<double>(lattice.sites.size());
}

std::vector<std::uint8_t> blocked_site_mask(const ElectrodeArray& array,
                                            const DefectMap& defects, int ring) {
  BIOCHIP_REQUIRE(ring >= 0, "ring must be non-negative");
  // `site_usable`'s (2·ring+1)² window is separable: dilate the defective
  // pixels along each row, then the rows along each column. A window that
  // leaves the array (within `ring` of an edge) blocks the site outright.
  const int cols = array.cols();
  const int rows = array.rows();
  const auto ucols = static_cast<std::size_t>(cols);
  std::vector<std::uint8_t> row_bad(array.electrode_count());
  std::vector<std::uint8_t> bad(ucols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c)
      bad[static_cast<std::size_t>(c)] = defects.state({c, r}) != PixelState::kOk ? 1 : 0;
    std::uint8_t* out = row_bad.data() + static_cast<std::size_t>(r) * ucols;
    for (int c = 0; c < cols; ++c) {
      std::uint8_t b = c < ring || c >= cols - ring ? 1 : 0;
      for (int k = -ring; k <= ring && b == 0; ++k) b = bad[static_cast<std::size_t>(c + k)];
      out[c] = b;
    }
  }
  std::vector<std::uint8_t> mask(array.electrode_count());
  for (int r = 0; r < rows; ++r) {
    std::uint8_t* out = mask.data() + static_cast<std::size_t>(r) * ucols;
    if (r < ring || r >= rows - ring) {
      std::fill(out, out + ucols, std::uint8_t{1});
      continue;
    }
    std::copy(row_bad.begin() + static_cast<std::ptrdiff_t>(r - ring) * cols,
              row_bad.begin() + static_cast<std::ptrdiff_t>(r - ring + 1) * cols, out);
    for (int k = -ring + 1; k <= ring; ++k) {
      const std::uint8_t* in = row_bad.data() + static_cast<std::size_t>(r + k) * ucols;
      for (std::size_t c = 0; c < ucols; ++c) out[c] |= in[c];
    }
  }
  return mask;
}

double all_good_yield(const ElectrodeArray& array, double defect_probability) {
  BIOCHIP_REQUIRE(defect_probability >= 0.0 && defect_probability <= 1.0,
                  "defect probability must be in [0,1]");
  // P(zero defects among N pixels) with small-p Poisson equivalence.
  return std::pow(1.0 - defect_probability,
                  static_cast<double>(array.electrode_count()));
}

double expected_usable_fraction(double defect_probability, int ring) {
  BIOCHIP_REQUIRE(ring >= 0, "ring must be non-negative");
  const double pixels = std::pow(2.0 * ring + 1.0, 2.0);
  return std::pow(1.0 - defect_probability, pixels);
}

}  // namespace biochip::chip
