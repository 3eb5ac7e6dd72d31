#include "sensor/detect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace biochip::sensor {

namespace {

struct Cluster {
  double weight_sum = 0.0;
  Vec2 weighted_pos{};
  double peak = 0.0;
  int count = 0;
};

// Where an entry's neighbors sit in a flagged list: its row, and the list
// positions of the first entries at or after its upper-left and its
// lower-left neighbor pixel, i.e. how many entries precede those pixels.
struct Links {
  std::size_t row = 0;
  std::size_t above = 0;
  std::size_t below = 0;
};

// 8-connected flood fill over a flagged list, seeded in raster order;
// neighbors are pushed in (row, col) order, so the visit order and every
// cluster sum are those of a flood fill over the dense map.
std::vector<Detection> flood_fill(const std::vector<FlaggedPixel>& flagged,
                                  const std::vector<Links>& links,
                                  const chip::ElectrodeArray& array) {
  const std::size_t cols = static_cast<std::size_t>(array.cols());
  const std::size_t rows = static_cast<std::size_t>(array.rows());
  const std::size_t n = flagged.size();
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::size_t> stack;
  const auto push = [&](std::size_t p) {
    if (visited[p]) return;
    visited[p] = 1;
    stack.push_back(p);
  };
  std::vector<Detection> out;
  for (std::size_t k0 = 0; k0 < n; ++k0) {
    if (visited[k0]) continue;
    Cluster cl;
    push(k0);
    while (!stack.empty()) {
      const std::size_t k = stack.back();
      stack.pop_back();
      const std::size_t index = flagged[k].index;
      const std::size_t row = links[k].row, col = index - row * cols;
      const double mag = std::fabs(flagged[k].value);
      const Vec2 ctr = array.center({static_cast<int>(col), static_cast<int>(row)});
      cl.weight_sum += mag;
      cl.weighted_pos += ctr * mag;
      cl.peak = std::max(cl.peak, mag);
      ++cl.count;
      const std::size_t right = col + 1 < cols ? col + 1 : col;
      if (row > 0)
        for (std::size_t p = links[k].above;
             p < n && flagged[p].index <= (row - 1) * cols + right; ++p)
          push(p);
      if (col > 0 && k > 0 && flagged[k - 1].index + 1 == index) push(k - 1);
      if (col + 1 < cols && k + 1 < n && flagged[k + 1].index == index + 1) push(k + 1);
      if (row + 1 < rows)
        for (std::size_t p = links[k].below;
             p < n && flagged[p].index <= (row + 1) * cols + right; ++p)
          push(p);
    }
    Detection d;
    d.position = cl.weighted_pos / cl.weight_sum;
    d.score = cl.peak;
    d.pixel_count = cl.count;
    out.push_back(d);
  }
  return out;
}

// A dense map's flagged pixels, as a list in raster order, and their links.
struct Scan {
  std::vector<FlaggedPixel> flagged;
  std::vector<Links> links;
};

// Dense map → the pixels at or below −threshold (`negative_signal`) or at or
// above +threshold. The scan counts the entries before every pixel as it
// goes, which are the links, so it needs no search; it is branch-free
// because a noisy map's flags are unpredictable.
Scan scan_map(const Grid2& map, const chip::ElectrodeArray& array, double threshold,
              bool negative_signal) {
  const auto flag = [&](double v) { return negative_signal ? v <= -threshold : v >= threshold; };
  const std::size_t cols = static_cast<std::size_t>(array.cols());
  const std::size_t rows = static_cast<std::size_t>(array.rows());
  BIOCHIP_REQUIRE(map.nx() == cols && map.ny() == rows, "map and array shapes differ");
  const std::vector<double>& data = map.data();
  std::size_t count = 0;
  for (const double v : data) count += flag(v) ? 1 : 0;
  Scan scan{std::vector<FlaggedPixel>(count + 1), std::vector<Links>(count + 1)};
  std::vector<FlaggedPixel>& flagged = scan.flagged;
  std::vector<Links>& links = scan.links;
  // Entries before each pixel of the previous and of the current row.
  std::vector<std::size_t> before_prev(cols), before_cur(cols);
  std::size_t m = 0, prev_begin = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t begin = m;
    for (std::size_t c = 0, index = r * cols; c < cols; ++c, ++index) {
      before_cur[c] = m;
      flagged[m] = {index, data[index]};
      m += flag(data[index]) ? 1 : 0;
    }
    for (std::size_t k = begin; k < m; ++k) {
      const std::size_t c = flagged[k].index - r * cols;
      links[k] = {r, r > 0 ? before_prev[c > 0 ? c - 1 : 0] : 0, m};
    }
    for (std::size_t k = prev_begin; k < begin; ++k) {
      const std::size_t c = flagged[k].index - (r - 1) * cols;
      links[k].below = before_cur[c > 0 ? c - 1 : 0];
    }
    std::swap(before_prev, before_cur);
    prev_begin = begin;
  }
  flagged.resize(count);
  links.resize(count);
  return scan;
}

}  // namespace

std::vector<Detection> cluster_flagged(const std::vector<FlaggedPixel>& flagged,
                                       const chip::ElectrodeArray& array) {
  const std::size_t cols = static_cast<std::size_t>(array.cols());
  const std::size_t rows = static_cast<std::size_t>(array.rows());
  const std::size_t n = flagged.size();
  // The links by search: the entries before a pixel grow with its raster
  // index, so forward cursors find them all in one pass.
  std::vector<Links> links(n);
  for (std::size_t k = 0, row = 0, pa = 0, pb = 0; k < n; ++k) {
    const std::size_t index = flagged[k].index;
    BIOCHIP_REQUIRE(index < cols * rows && (k == 0 || flagged[k - 1].index < index),
                    "flagged pixels must be in ascending raster order inside the array");
    while (index >= (row + 1) * cols) ++row;
    const std::size_t col = index - row * cols;
    const std::size_t left = col > 0 ? col - 1 : 0;
    const std::size_t above_lo = row > 0 ? (row - 1) * cols + left : 0;
    const std::size_t below_lo = (row + 1) * cols + left;
    while (pa < n && flagged[pa].index < above_lo) ++pa;
    while (pb < n && flagged[pb].index < below_lo) ++pb;
    links[k] = {row, pa, pb};
  }
  return flood_fill(flagged, links, array);
}

std::vector<Detection> detect_threshold(const Grid2& frame,
                                        const chip::ElectrodeArray& array,
                                        double threshold) {
  BIOCHIP_REQUIRE(threshold > 0.0, "threshold must be positive");
  const Scan scan = scan_map(frame, array, threshold, /*negative_signal=*/true);
  return flood_fill(scan.flagged, scan.links, array);
}

std::vector<double> matched_kernel(const CapacitivePixel& pixel,
                                   const chip::ElectrodeArray& array,
                                   double particle_radius, double z, int half_extent) {
  BIOCHIP_REQUIRE(half_extent >= 0, "half extent must be >= 0");
  const int n = 2 * half_extent + 1;
  std::vector<double> kernel(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  double energy = 0.0;
  for (int dj = -half_extent; dj <= half_extent; ++dj)
    for (int di = -half_extent; di <= half_extent; ++di) {
      const double lateral = std::hypot(static_cast<double>(di), static_cast<double>(dj)) *
                             array.pitch();
      const double v = pixel.delta_c(particle_radius, z, lateral);
      kernel[static_cast<std::size_t>((dj + half_extent) * n + (di + half_extent))] = v;
      energy += v * v;
    }
  BIOCHIP_REQUIRE(energy > 0.0, "kernel has no energy");
  const double inv = 1.0 / std::sqrt(energy);
  for (double& v : kernel) v *= inv;
  return kernel;
}

Grid2 correlate(const Grid2& frame, const std::vector<double>& kernel, int half_extent) {
  const int n = 2 * half_extent + 1;
  BIOCHIP_REQUIRE(kernel.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                  "kernel size does not match half extent");
  Grid2 out(frame.nx(), frame.ny(), frame.spacing());
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(frame.nx());
  const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(frame.ny());
  const std::ptrdiff_t h = half_extent;
  const double* in = frame.data().data();
  // Borders are zero-padded, so a pixel sums only its in-frame taps, in
  // row-major order, onto the output's +0.0. Each window is clamped to the
  // frame once per row and per border column; the interior columns of a row
  // share their window, so their taps accumulate across the row tap by tap.
  const std::ptrdiff_t i0 = std::min(h, nx), i1 = std::max(i0, nx - h);
  for (std::ptrdiff_t j = 0; j < ny; ++j) {
    const std::ptrdiff_t dj0 = std::max(-h, -j), dj1 = std::min(h, ny - 1 - j);
    double* acc = out.data().data() + j * nx;
    const auto add_taps = [&](std::ptrdiff_t ib, std::ptrdiff_t ie, std::ptrdiff_t di0,
                              std::ptrdiff_t di1) {
      for (std::ptrdiff_t dj = dj0; dj <= dj1; ++dj)
        for (std::ptrdiff_t di = di0; di <= di1; ++di) {
          const double k = kernel[static_cast<std::size_t>((dj + h) * n + di + h)];
          const std::ptrdiff_t src = (j + dj) * nx + di;
          for (std::ptrdiff_t i = ib; i < ie; ++i) acc[i] += in[src + i] * k;
        }
    };
    add_taps(i0, i1, -h, h);
    for (std::ptrdiff_t i = 0; i < i0; ++i) add_taps(i, i + 1, -i, std::min(h, nx - 1 - i));
    for (std::ptrdiff_t i = i1; i < nx; ++i) add_taps(i, i + 1, std::max(-h, -i), nx - 1 - i);
  }
  return out;
}

std::vector<Detection> detect_matched(const Grid2& frame, const chip::ElectrodeArray& array,
                                      const CapacitivePixel& pixel, double particle_radius,
                                      double z, double threshold) {
  BIOCHIP_REQUIRE(threshold > 0.0, "threshold must be positive");
  constexpr int kHalf = 1;
  const std::vector<double> kernel = matched_kernel(pixel, array, particle_radius, z, kHalf);
  Scan scan;
  {
    Grid2 corr = correlate(frame, kernel, kHalf);
    // Kernel entries are negative (ΔC), so particle sites correlate to
    // negative peaks; flip for positive-peak clustering.
    for (double& v : corr.data()) v = -v;
    scan = scan_map(corr, array, threshold, /*negative_signal=*/false);
  }  // the correlation map is released before the flood fill allocates
  return flood_fill(scan.flagged, scan.links, array);
}

std::vector<int> associate_detections(const std::vector<Vec2>& expected,
                                      const std::vector<Detection>& detections,
                                      double gate) {
  BIOCHIP_REQUIRE(gate > 0.0, "association gate must be positive");
  std::vector<int> assignment(expected.size(), -1);
  std::vector<std::uint8_t> det_used(detections.size(), 0);
  // Greedy nearest-pair assignment (match_detections scores through it):
  // strict < keeps the first (lowest-index) pair at equal distance.
  for (std::size_t round = 0; round < expected.size(); ++round) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t be = 0, bd = 0;
    bool found = false;
    for (std::size_t e = 0; e < expected.size(); ++e) {
      if (assignment[e] >= 0) continue;
      for (std::size_t d = 0; d < detections.size(); ++d) {
        if (det_used[d]) continue;
        const double dist = (expected[e] - detections[d].position).norm();
        if (dist <= gate && dist < best) {
          best = dist;
          be = e;
          bd = d;
          found = true;
        }
      }
    }
    if (!found) break;
    assignment[be] = static_cast<int>(bd);
    det_used[bd] = 1;
  }
  return assignment;
}

double MatchStats::recall() const {
  const int denom = true_positives + false_negatives;
  return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
}

double MatchStats::precision() const {
  const int denom = true_positives + false_positives;
  return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
}

MatchStats match_detections(const std::vector<Vec2>& truth,
                            const std::vector<Detection>& detections, double tolerance) {
  BIOCHIP_REQUIRE(tolerance > 0.0, "tolerance must be positive");
  const std::vector<int> assignment = associate_detections(truth, detections, tolerance);
  std::vector<double> matched;
  for (std::size_t t = 0; t < truth.size(); ++t)
    if (assignment[t] >= 0)
      matched.push_back(
          (truth[t] - detections[static_cast<std::size_t>(assignment[t])].position).norm());
  // The greedy rounds pick pairs nearest first, so the ascending order is
  // their pick order, and the sum below keeps the bits of a sum in picks.
  std::sort(matched.begin(), matched.end());
  MatchStats stats;
  stats.true_positives = static_cast<int>(matched.size());
  for (const double d : matched) stats.mean_localization_error += d;
  if (stats.true_positives > 0) stats.mean_localization_error /= stats.true_positives;
  stats.false_negatives = static_cast<int>(truth.size()) - stats.true_positives;
  stats.false_positives = static_cast<int>(detections.size()) - stats.true_positives;
  return stats;
}

}  // namespace biochip::sensor
