#pragma once
/// \file detect.hpp
/// \brief Particle detection and localization on sensor frames.
///
/// Two detectors:
///  * threshold: flag pixels with ΔC below −threshold, cluster 8-connected,
///    report |ΔC|-weighted centroids;
///  * matched filter: correlate with the expected particle footprint first
///    (optimal for white noise), then threshold the correlation map.
/// Both scan their map into a list of flagged pixels and run on it the one
/// flood fill that `cluster_flagged` runs on the closed loop's sparse list.
/// Scoring helpers compare detections against ground truth and sweep ROC
/// curves for claim C4.

#include <cstddef>
#include <vector>

#include "chip/electrode_array.hpp"
#include "common/grid.hpp"
#include "sensor/capacitive.hpp"

namespace biochip::sensor {

/// One reported particle.
struct Detection {
  Vec2 position;       ///< centroid in chip coordinates [m]
  double score = 0.0;  ///< peak |signal| of the cluster [F or correlation units]
  int pixel_count = 0; ///< cluster size
};

/// One flagged pixel: its raster index (row · cols + col) and its value.
struct FlaggedPixel {
  std::size_t index = 0;
  double value = 0.0;
};

/// Cluster flagged pixels 8-connected, seeding clusters in raster order, and
/// report |value|-weighted centroids, peak |value| and pixel counts.
/// `flagged` must be in ascending raster order over `array`'s shape, without
/// repeats. Cost O(flagged pixels), whatever the array size.
std::vector<Detection> cluster_flagged(const std::vector<FlaggedPixel>& flagged,
                                       const chip::ElectrodeArray& array);

/// Threshold detector. `threshold` is a positive ΔC magnitude [F]; pixels
/// with value <= -threshold participate. The frame has the array's shape.
std::vector<Detection> detect_threshold(const Grid2& frame,
                                        const chip::ElectrodeArray& array,
                                        double threshold);

/// Expected-footprint kernel (normalized to unit energy) for a particle of
/// the given radius resting at height z, sampled on the pixel lattice.
/// `half_extent` pixels on each side (kernel is (2h+1)²).
std::vector<double> matched_kernel(const CapacitivePixel& pixel,
                                   const chip::ElectrodeArray& array,
                                   double particle_radius, double z, int half_extent = 1);

/// Correlate the frame with a kernel (zero-padded borders). Output units:
/// noise-normalized if the caller divides by σ√E; here raw correlation.
Grid2 correlate(const Grid2& frame, const std::vector<double>& kernel, int half_extent);

/// Matched-filter detector: correlation map thresholded at `threshold`
/// (note the map flips sign, so peaks are positive).
std::vector<Detection> detect_matched(const Grid2& frame, const chip::ElectrodeArray& array,
                                      const CapacitivePixel& pixel, double particle_radius,
                                      double z, double threshold);

/// Ground-truth match result.
struct MatchStats {
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  double mean_localization_error = 0.0;  ///< over TPs [m]

  double recall() const;
  double precision() const;
};

/// Greedy nearest-first matching of detections to truth within `tolerance`:
/// `associate_detections` with `truth` as the expected positions.
MatchStats match_detections(const std::vector<Vec2>& truth,
                            const std::vector<Detection>& detections, double tolerance);

/// Detection→track adapter for closed-loop supervision: greedy nearest-first
/// assignment of detections to `expected` positions (per-cage trap centers)
/// within `gate`. Returns, per expected position, the index of its matched
/// detection or -1; each detection is used at most once. Ties and order are
/// deterministic (nearest pair first; lower indices win at equal distance),
/// so the tracker built on top stays bitwise reproducible.
std::vector<int> associate_detections(const std::vector<Vec2>& expected,
                                      const std::vector<Detection>& detections,
                                      double gate);

}  // namespace biochip::sensor
