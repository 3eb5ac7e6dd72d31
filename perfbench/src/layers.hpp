#pragma once
/// \file layers.hpp
/// \brief The benchmark's own arithmetic: span self times and guarded
/// percentiles.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Self time of every span [ns], indexed like `spans`: its duration minus
/// the part covered by spans nested directly inside it, on any lane. In a
/// serial run the driver's `chambers` span encloses that tick's chamber-lane
/// phase spans, so only its dispatch overhead remains, and the self times of
/// all spans sum to the union of the top-level spans (nothing is counted
/// twice). Throws when a nested span carries another tick than its parent.
std::vector<std::uint64_t> self_times(const std::vector<biochip::obs::TraceSpan>& spans);

/// Nearest-rank percentile `p` (in percent, 0 < p < 100) of `samples`.
/// Returns nullopt when fewer than ten samples lie beyond it, so no named
/// percentile is ever published from a thin tail.
std::optional<double> percentile(std::vector<double> samples, int p);

/// Plain median (nullopt when empty); for repeated whole-run measurements,
/// not for named percentiles.
std::optional<double> median(std::vector<double> samples);

/// Per-span-name self-time samples folded over one or more traced runs.
class LayerFold {
 public:
  /// Fold the spans of one serial traced run.
  void add(const std::vector<biochip::obs::TraceSpan>& spans);

  /// Σ self time of a span name [µs] (0 when never seen).
  double total_us(const std::string& name) const;
  /// Self-time samples of a span name [µs], one per span instance.
  const std::vector<double>& samples_us(const std::string& name) const;
  /// Σ self time of every span [µs]: the traced wall time the spans cover.
  double covered_us() const { return covered_us_; }

 private:
  std::map<std::string, std::vector<double>> by_name_;
  double covered_us_ = 0.0;
};

}  // namespace perfbench
