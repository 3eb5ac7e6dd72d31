#include "sensor/frame.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biochip::sensor {

namespace {

// Each particle contributes to the pixels within a 2-pitch lateral window:
// calls add(raster index, ΔC contribution) target by target, each window in
// raster order. `ideal_frame` and `averaged_crossings` both sum through it.
template <class Add>
void walk_windows(const chip::ElectrodeArray& array, const CapacitivePixel& pixel,
                  const std::vector<FrameTarget>& targets, Add add) {
  const double window = 2.0 * array.pitch();
  for (const FrameTarget& t : targets) {
    BIOCHIP_REQUIRE(t.radius > 0.0, "target radius must be positive");
    const CapacitivePixel::TargetSignal signal = pixel.target_signal(t.radius, t.position.z);
    const GridCoord lo = array.nearest({t.position.x - window, t.position.y - window});
    const GridCoord hi = array.nearest({t.position.x + window, t.position.y + window});
    for (int r = lo.row; r <= hi.row; ++r)
      for (int c = lo.col; c <= hi.col; ++c) {
        const Vec2 ctr = array.center({c, r});
        const double lateral = (ctr - Vec2{t.position.x, t.position.y}).norm();
        add(array.index({c, r}), signal.at(lateral));
      }
  }
}

// The one expression for an averaged pixel: ideal ΔC plus σ-scaled noise
// (the `v += rng.normal(0.0, sigma)` of the dense frame).
double averaged_pixel(double ideal, double sigma, double z) { return ideal + (0.0 + sigma * z); }

// Sparse form of writing `writes` over a frame and then thresholding: both
// lists are in raster order, a write wins over the flagged entry at its
// pixel, and only entries at or below −threshold are kept.
std::vector<FlaggedPixel> overwrite(const std::vector<FlaggedPixel>& flagged,
                                    const std::vector<FlaggedPixel>& writes, double threshold) {
  std::vector<FlaggedPixel> out;
  out.reserve(flagged.size());
  auto f = flagged.begin();
  for (const FlaggedPixel& w : writes) {
    for (; f != flagged.end() && f->index < w.index; ++f) out.push_back(*f);
    if (f != flagged.end() && f->index == w.index) ++f;
    if (w.value <= -threshold) out.push_back(w);
  }
  out.insert(out.end(), f, flagged.end());
  return out;
}

}  // namespace

FrameSynthesizer::FrameSynthesizer(chip::ElectrodeArray array, CapacitivePixel pixel,
                                   double temperature, std::uint64_t seed)
    : array_(array), pixel_(pixel), temperature_(temperature), seed_(seed) {
  BIOCHIP_REQUIRE(temperature > 0.0, "temperature must be positive");
}

Grid2 FrameSynthesizer::offsets() const {
  Grid2 map(static_cast<std::size_t>(array_.cols()), static_cast<std::size_t>(array_.rows()),
            array_.pitch());
  Rng rng(seed_);
  for (double& v : map.data()) v = rng.normal(0.0, pixel_.offset_sigma_farads);
  return map;
}

Grid2 FrameSynthesizer::ideal_frame(const std::vector<FrameTarget>& targets) const {
  Grid2 frame(static_cast<std::size_t>(array_.cols()),
              static_cast<std::size_t>(array_.rows()), array_.pitch());
  walk_windows(array_, pixel_, targets,
               [&](std::size_t index, double dc) { frame.data()[index] += dc; });
  return frame;
}

Grid2 FrameSynthesizer::raw_frame(const std::vector<FrameTarget>& targets, Rng& rng) const {
  Grid2 frame = ideal_frame(targets);
  const double sigma = pixel_.frame_noise_sigma(temperature_);
  Rng offset(seed_);  // the stream `offsets()` draws, pixel by pixel
  for (double& v : frame.data())
    v += offset.normal(0.0, pixel_.offset_sigma_farads) + rng.normal(0.0, sigma);
  return frame;
}

Grid2 FrameSynthesizer::cds_frame(const std::vector<FrameTarget>& targets, Rng& rng) const {
  Grid2 frame = ideal_frame(targets);
  const double sigma = cds_noise_sigma();
  for (double& v : frame.data()) v += rng.normal(0.0, sigma);
  return frame;
}

Grid2 FrameSynthesizer::averaged_frame(const std::vector<FrameTarget>& targets, Rng& rng,
                                       std::size_t n_frames) const {
  BIOCHIP_REQUIRE(n_frames >= 1, "need at least one frame");
  Grid2 acc = ideal_frame(targets);
  // Equivalent to averaging n CDS frames: noise σ scales by 1/√n.
  const double sigma = cds_noise_sigma() / std::sqrt(static_cast<double>(n_frames));
  for (double& v : acc.data()) v = averaged_pixel(v, sigma, rng.normal());
  return acc;
}

std::vector<FlaggedPixel> FrameSynthesizer::averaged_crossings(
    const std::vector<FrameTarget>& targets, Rng& rng, std::size_t n_frames, double threshold,
    std::size_t* background_crossings) const {
  BIOCHIP_REQUIRE(n_frames >= 1, "need at least one frame");
  BIOCHIP_REQUIRE(threshold > 0.0, "threshold must be positive");
  // Ideal ΔC of the window pixels, summed per pixel in target order as
  // `ideal_frame` sums it (the stable sort keeps that order).
  std::vector<FlaggedPixel> parts;
  walk_windows(array_, pixel_, targets,
               [&](std::size_t index, double dc) { parts.push_back({index, dc}); });
  std::stable_sort(parts.begin(), parts.end(),
                   [](const FlaggedPixel& a, const FlaggedPixel& b) { return a.index < b.index; });
  std::vector<FlaggedPixel> ideal;
  for (const FlaggedPixel& p : parts) {
    if (ideal.empty() || ideal.back().index != p.index) ideal.push_back({p.index, 0.0});
    ideal.back().value += p.value;
  }

  // Window pixels: one normal each, in raster order.
  const double sigma = cds_noise_sigma() / std::sqrt(static_cast<double>(n_frames));
  std::vector<FlaggedPixel> window_hits;
  for (const FlaggedPixel& w : ideal) {
    const double v = averaged_pixel(w.value, sigma, rng.normal());
    if (v <= -threshold) window_hits.push_back({w.index, v});
  }

  // Every other pixel reads σ·z alone, so its crossings are an i.i.d.
  // Bernoulli(p) subset, p = Φ(−k), k = threshold/σ: geometric skips over
  // all pixels, a hit on a window pixel dropped (its trial is independent
  // of the others), each kept hit's z drawn from the tail below −k.
  const double k = threshold / sigma;
  const double p = 0.5 * std::erfc(k / std::sqrt(2.0));
  const std::size_t n = array_.electrode_count();
  std::vector<FlaggedPixel> out;
  std::size_t background = 0;
  auto window = ideal.begin();
  auto hit = window_hits.begin();
  for (std::size_t i = 0; p > 0.0; ++i) {
    const std::uint64_t skip = rng.geometric(p);
    if (skip >= n - i) break;
    i += skip;
    while (window != ideal.end() && window->index < i) ++window;
    if (window != ideal.end() && window->index == i) continue;
    const double v = averaged_pixel(0.0, sigma, -rng.normal_tail(k));
    if (v > -threshold) continue;
    for (; hit != window_hits.end() && hit->index < i; ++hit) out.push_back(*hit);
    out.push_back({i, v});
    ++background;
  }
  out.insert(out.end(), hit, window_hits.end());
  if (background_crossings != nullptr) *background_crossings = background;
  return out;
}

double FrameSynthesizer::cds_noise_sigma() const {
  return pixel_.frame_noise_sigma(temperature_) * std::sqrt(2.0);
}

void apply_pixel_faults(Grid2& frame, const chip::DefectMap& defects) {
  BIOCHIP_REQUIRE(frame.nx() == static_cast<std::size_t>(defects.cols()) &&
                      frame.ny() == static_cast<std::size_t>(defects.rows()),
                  "frame and defect map shapes differ");
  for (int r = 0; r < defects.rows(); ++r)
    for (int c = 0; c < defects.cols(); ++c) {
      if (defects.state({c, r}) != chip::PixelState::kOk)
        frame.at(static_cast<std::size_t>(c), static_cast<std::size_t>(r)) = 0.0;
    }
}

std::vector<PixelFault> pixel_faults(const chip::DefectMap& defects) {
  std::vector<PixelFault> out;
  for (int r = 0; r < defects.rows(); ++r)
    for (int c = 0; c < defects.cols(); ++c) {
      const chip::PixelState s = defects.state({c, r});
      if (s == chip::PixelState::kOk) continue;
      out.push_back({static_cast<std::size_t>(r) * static_cast<std::size_t>(defects.cols()) +
                         static_cast<std::size_t>(c),
                     s});
    }
  return out;
}

std::vector<FlaggedPixel> apply_frame_faults(const std::vector<FlaggedPixel>& crossings,
                                             const chip::ElectrodeArray& array,
                                             const FrameFaults& faults, double threshold) {
  BIOCHIP_REQUIRE(threshold > 0.0, "threshold must be positive");
  // A masked pixel reads 0, which never flags: a pixel fault only removes
  // the crossing it sits on, so the crossings are looked up in the sorted
  // fault span.
  std::vector<FlaggedPixel> flagged;
  flagged.reserve(crossings.size());
  auto fault = faults.pixels.begin();
  for (const FlaggedPixel& p : crossings) {
    fault = std::lower_bound(fault, faults.pixels.end(), p.index,
                             [](const PixelFault& f, std::size_t i) { return f.index < i; });
    if (fault == faults.pixels.end() || fault->index != p.index) flagged.push_back(p);
  }
  // A dropout row reads 0 too: its entries just go.
  const std::size_t cols = static_cast<std::size_t>(array.cols());
  std::erase_if(flagged, [&](const FlaggedPixel& p) {
    return std::find(faults.zero_rows.begin(), faults.zero_rows.end(),
                     static_cast<int>(p.index / cols)) != faults.zero_rows.end();
  });
  std::vector<FlaggedPixel> writes;
  for (const PhantomTile& t : faults.phantom_tiles)
    for (int dr = 0; dr < t.side; ++dr)
      for (int dc = 0; dc < t.side; ++dc) {
        const GridCoord s{t.origin.col + dc, t.origin.row + dr};
        if (array.contains(s)) writes.push_back({array.index(s), faults.phantom_dc});
      }
  // Every tile writes the same value, so overlapping tiles collapse to one write.
  std::sort(writes.begin(), writes.end(),
            [](const FlaggedPixel& a, const FlaggedPixel& b) { return a.index < b.index; });
  writes.erase(std::unique(writes.begin(), writes.end(),
                           [](const FlaggedPixel& a, const FlaggedPixel& b) {
                             return a.index == b.index;
                           }),
               writes.end());
  return overwrite(flagged, writes, threshold);
}

OpticalFrameSynthesizer::OpticalFrameSynthesizer(chip::ElectrodeArray array,
                                                 OpticalPixel pixel)
    : array_(array), pixel_(pixel) {
  BIOCHIP_REQUIRE(pixel.photodiode_area > 0.0, "photodiode area must be positive");
}

Grid2 OpticalFrameSynthesizer::ideal_frame(const std::vector<FrameTarget>& targets) const {
  Grid2 frame(static_cast<std::size_t>(array_.cols()),
              static_cast<std::size_t>(array_.rows()), array_.pitch());
  const double window = 2.0 * array_.pitch();
  for (const FrameTarget& t : targets) {
    BIOCHIP_REQUIRE(t.radius > 0.0, "target radius must be positive");
    const GridCoord lo = array_.nearest({t.position.x - window, t.position.y - window});
    const GridCoord hi = array_.nearest({t.position.x + window, t.position.y + window});
    for (int r = lo.row; r <= hi.row; ++r)
      for (int c = lo.col; c <= hi.col; ++c) {
        const Vec2 ctr = array_.center({c, r});
        const double lateral = (ctr - Vec2{t.position.x, t.position.y}).norm();
        frame.at(static_cast<std::size_t>(c), static_cast<std::size_t>(r)) -=
            pixel_.delta_current(t.radius, lateral);
      }
  }
  return frame;
}

Grid2 OpticalFrameSynthesizer::noisy_frame(const std::vector<FrameTarget>& targets,
                                           Rng& rng) const {
  Grid2 frame = ideal_frame(targets);
  const double sigma = noise_sigma();
  for (double& v : frame.data()) v += rng.normal(0.0, sigma);
  return frame;
}

Grid2 OpticalFrameSynthesizer::averaged_frame(const std::vector<FrameTarget>& targets,
                                              Rng& rng, std::size_t n_frames) const {
  BIOCHIP_REQUIRE(n_frames >= 1, "need at least one frame");
  Grid2 frame = ideal_frame(targets);
  const double sigma = noise_sigma() / std::sqrt(static_cast<double>(n_frames));
  for (double& v : frame.data()) v += rng.normal(0.0, sigma);
  return frame;
}

double OpticalFrameSynthesizer::noise_sigma() const {
  // Charge noise over the integration time, referred back to current.
  return pixel_.charge_noise() / pixel_.integration_time;
}

}  // namespace biochip::sensor
