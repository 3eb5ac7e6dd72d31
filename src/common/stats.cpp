#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biochip {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_), nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double nt = na + nb;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  n_ += o.n_;
}

double Percentiles::percentile(double q) const {
  BIOCHIP_REQUIRE(!data_.empty(), "percentile on empty sample set");
  BIOCHIP_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q out of [0,100]");
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
  if (data_.size() == 1) return data_.front();
  const double rank = q / 100.0 * static_cast<double>(data_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, data_.size() - 1);
  const double t = rank - static_cast<double>(lo);
  return data_[lo] + (data_[hi] - data_[lo]) * t;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  BIOCHIP_REQUIRE(hi > lo, "Histogram range inverted");
  BIOCHIP_REQUIRE(bins >= 1, "Histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double f = (x - lo_) / (hi_ - lo_);
  auto b = static_cast<std::size_t>(f * static_cast<double>(counts_.size()));
  if (b >= counts_.size()) b = counts_.size() - 1;
  ++counts_[b];
}

std::size_t Histogram::bin_count(std::size_t b) const {
  BIOCHIP_REQUIRE(b < counts_.size(), "Histogram bin out of range");
  return counts_[b];
}

double Histogram::bin_center(std::size_t b) const {
  BIOCHIP_REQUIRE(b < counts_.size(), "Histogram bin out of range");
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(b) + 0.5) * w;
}

}  // namespace biochip
