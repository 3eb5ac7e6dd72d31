#pragma once
/// \file frame.hpp
/// \brief Synthesis of (noisy) sensor frames from the physical scene.
///
/// A frame is a Grid2 of ΔC values (capacitance change vs. dry baseline),
/// one node per pixel, spacing = electrode pitch. The synthesizer owns the
/// seed of the per-pixel fixed-pattern offsets so raw vs. CDS readout can
/// be compared.

#include <cstdint>
#include <span>
#include <vector>

#include "chip/defects.hpp"
#include "chip/electrode_array.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/detect.hpp"
#include "sensor/optical.hpp"

namespace biochip::sensor {

/// Minimal particle description for imaging.
struct FrameTarget {
  Vec3 position;        ///< center [m] (chip-plane x,y; z above surface)
  double radius = 0.0;  ///< [m]
};

class FrameSynthesizer {
 public:
  /// `seed` fixes the per-pixel fixed-pattern offsets (a property of the
  /// chip, not of the frame).
  FrameSynthesizer(chip::ElectrodeArray array, CapacitivePixel pixel, double temperature,
                   std::uint64_t seed);

  const chip::ElectrodeArray& array() const { return array_; }
  const CapacitivePixel& pixel() const { return pixel_; }
  /// The chip's fixed-pattern offset map [F], drawn from the seed on each
  /// call (only raw reads carry offsets, so none is stored).
  Grid2 offsets() const;

  /// Noiseless ΔC image of the scene.
  Grid2 ideal_frame(const std::vector<FrameTarget>& targets) const;
  /// Single raw read: ideal + fixed-pattern offsets + random noise. The
  /// offsets are drawn beside the noise, pixel by pixel, in the same order
  /// and with the same values as `offsets()`.
  Grid2 raw_frame(const std::vector<FrameTarget>& targets, Rng& rng) const;
  /// Correlated-double-sampled read: offsets cancel, random noise ×√2
  /// (two samples are differenced).
  Grid2 cds_frame(const std::vector<FrameTarget>& targets, Rng& rng) const;
  /// Mean of n CDS frames (the claim-C4 averaging path).
  Grid2 averaged_frame(const std::vector<FrameTarget>& targets, Rng& rng,
                       std::size_t n_frames) const;
  /// The pixels of an averaged frame (`averaged_frame`'s law) whose value is
  /// <= -threshold, in raster order. Drawn from the frame's law, not its
  /// stream: the targets' window pixels read ideal ΔC + σ·z, one `normal()`
  /// each; every other pixel reads σ·z alone, so its crossings are drawn as
  /// geometric skips with p = Φ(−threshold/σ) and their values from the
  /// normal tail (`Rng::geometric`, `Rng::normal_tail`). Cost
  /// O(targets × window + crossings). `background_crossings`, when given,
  /// receives how many of the returned pixels lie outside every window.
  /// `threshold` > 0 [F].
  std::vector<FlaggedPixel> averaged_crossings(const std::vector<FrameTarget>& targets,
                                               Rng& rng, std::size_t n_frames,
                                               double threshold,
                                               std::size_t* background_crossings = nullptr) const;

  /// Per-frame random-noise σ of a CDS read [F].
  double cds_noise_sigma() const;

 private:
  chip::ElectrodeArray array_;
  CapacitivePixel pixel_;
  double temperature_;
  std::uint64_t seed_;  ///< seed of the fixed-pattern offset stream
};

/// Mask manufacturing pixel faults on a synthesized ΔC frame (the sensor
/// side of `chip::DefectMap`): every known-bad pixel (dead, stuck background
/// or stuck cage) reads 0, as the controller's bad-pixel mask writes it.
/// Frame and map must share the array shape.
void apply_pixel_faults(Grid2& frame, const chip::DefectMap& defects);

/// A faulty pixel of a defect map: raster index and (non-OK) state.
struct PixelFault {
  std::size_t index = 0;
  chip::PixelState state = chip::PixelState::kOk;
};
/// The faulty pixels of `defects`, in raster order.
std::vector<PixelFault> pixel_faults(const chip::DefectMap& defects);

/// A square of pixels that reads a phantom particle (a sensor burst).
struct PhantomTile {
  GridCoord origin;  ///< lowest (col, row) corner
  int side = 0;      ///< pixels per side; the part outside the array is dropped
};

/// The sensor faults one sense writes over its averaged frame before
/// thresholding, in write order; the later writer wins at a pixel.
struct FrameFaults {
  /// Known-bad pixels in raster order, masked: each reads 0, as
  /// `apply_pixel_faults` writes them.
  std::span<const PixelFault> pixels;
  std::vector<int> zero_rows;  ///< row dropouts: the whole row reads 0
  std::vector<PhantomTile> phantom_tiles;  ///< bursts: each pixel reads `phantom_dc`
  double phantom_dc = 0.0;
};

/// Sparse twin of writing `faults` over an averaged frame and flagging the
/// pixels at or below −threshold: takes the frame's crossings
/// (`FrameSynthesizer::averaged_crossings`) and returns, in raster order,
/// the pixels and values `detect_threshold` would flag on the faulted frame.
/// `threshold` > 0 [F], so a pixel that reads 0 never flags. Cost
/// O(crossings × log faulty pixels + dropout rows × crossings + tile
/// pixels).
std::vector<FlaggedPixel> apply_frame_faults(const std::vector<FlaggedPixel>& crossings,
                                             const chip::ElectrodeArray& array,
                                             const FrameFaults& faults, double threshold);

/// Optical counterpart: frames of photocurrent *change* ΔI per pixel
/// (negative under a shadowing particle, so the same detectors apply).
/// Noise is shot noise on the baseline photo+dark current.
class OpticalFrameSynthesizer {
 public:
  OpticalFrameSynthesizer(chip::ElectrodeArray array, OpticalPixel pixel);

  const chip::ElectrodeArray& array() const { return array_; }
  const OpticalPixel& pixel() const { return pixel_; }

  /// Noiseless ΔI image of the scene [A].
  Grid2 ideal_frame(const std::vector<FrameTarget>& targets) const;
  /// Single integration with shot noise.
  Grid2 noisy_frame(const std::vector<FrameTarget>& targets, Rng& rng) const;
  /// Mean of n frames (shot noise averages down by √n).
  Grid2 averaged_frame(const std::vector<FrameTarget>& targets, Rng& rng,
                       std::size_t n_frames) const;

  /// Per-frame current-referred noise σ [A].
  double noise_sigma() const;

 private:
  chip::ElectrodeArray array_;
  OpticalPixel pixel_;
};

}  // namespace biochip::sensor
