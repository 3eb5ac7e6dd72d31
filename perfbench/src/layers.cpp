#include "layers.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {

std::vector<std::uint64_t> self_times(const std::vector<biochip::obs::TraceSpan>& spans) {
  // Spans are recorded when they END, so a parent follows its children in
  // the ring; order by start (longest first on ties) to see parents first.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].start_ns != spans[b].start_ns) return spans[a].start_ns < spans[b].start_ns;
    return spans[a].dur_ns > spans[b].dur_ns;
  });
  std::vector<std::uint64_t> self(spans.size());
  std::vector<std::size_t> open;  // enclosing spans, innermost last
  for (const std::size_t i : order) {
    const biochip::obs::TraceSpan& s = spans[i];
    self[i] = s.dur_ns;
    while (!open.empty() &&
           spans[open.back()].start_ns + spans[open.back()].dur_ns <= s.start_ns)
      open.pop_back();
    if (!open.empty()) {
      const biochip::obs::TraceSpan& parent = spans[open.back()];
      if (s.start_ns + s.dur_ns > parent.start_ns + parent.dur_ns)
        throw std::runtime_error("span overlaps its parent: the run was not serial");
      if (s.tick != parent.tick)
        throw std::runtime_error("nested span carries another tick than its parent");
      self[open.back()] -= s.dur_ns;
    }
    open.push_back(i);
  }
  return self;
}

std::optional<double> percentile(std::vector<double> samples, int p) {
  if (p <= 0 || p >= 100) throw std::invalid_argument("percentile must be in (0, 100)");
  const std::size_t n = samples.size();
  // Nearest rank in integer arithmetic: 0.9 * 100 is 90.00000000000001 in
  // floating point, which would cost a p90 of 100 samples its tenth sample.
  const std::size_t rank =
      std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
  if (n < rank || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void LayerFold::add(const std::vector<biochip::obs::TraceSpan>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double us = static_cast<double>(self[i]) * 1e-3;
    by_name_[spans[i].name].push_back(us);
    covered_us_ += us;
  }
}

double LayerFold::total_us(const std::string& name) const {
  const std::vector<double>& s = samples_us(name);
  return std::accumulate(s.begin(), s.end(), 0.0);
}

const std::vector<double>& LayerFold::samples_us(const std::string& name) const {
  static const std::vector<double> none;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? none : it->second;
}

}  // namespace perfbench
