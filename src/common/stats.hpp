#pragma once
/// \file stats.hpp
/// \brief Streaming statistics, percentiles, and histograms for experiments.

#include <cstddef>
#include <vector>

namespace biochip {

/// Welford streaming mean/variance plus min/max. O(1) per sample.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Merge another accumulator (parallel reduction).
  void merge(const RunningStats& o);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects samples for percentile queries (sorts lazily).
class Percentiles {
 public:
  void add(double x) { data_.push_back(x); sorted_ = false; }
  std::size_t count() const { return data_.size(); }
  /// Linear-interpolated percentile; q in [0,100]. Requires >=1 sample.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
};

/// Fixed-range uniform histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bin_count(std::size_t b) const;
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  double bin_center(std::size_t b) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace biochip
