#include "obs/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biochip::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

const char* to_string(Plane plane) {
  switch (plane) {
    case Plane::kCounting: return "counting";
    case Plane::kExecution: return "execution";
  }
  return "unknown";
}

MetricId MetricsRegistry::intern(std::string_view name, int index,
                                 MetricKind kind, Plane plane,
                                 std::vector<std::int64_t> bounds) {
  BIOCHIP_REQUIRE(!name.empty(), "metric name must be non-empty");
  const auto key = std::make_pair(std::string(name), index);
  const auto it = by_name_.find(key);
  if (it != by_name_.end()) {
    BIOCHIP_REQUIRE(metrics_[it->second].kind == kind,
                    "metric re-registered with a different kind");
    return {it->second};
  }
  Metric m;
  m.name = key.first;
  m.index = index;
  m.kind = kind;
  m.plane = plane;
  if (kind == MetricKind::kHistogram) {
    BIOCHIP_REQUIRE(!bounds.empty(), "histogram needs at least one bound");
    BIOCHIP_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
                    "histogram bounds must ascend");
    m.bounds = std::move(bounds);
    m.buckets.assign(m.bounds.size() + 1, 0);
  }
  metrics_.push_back(std::move(m));
  by_name_.emplace(key, metrics_.size() - 1);
  return {metrics_.size() - 1};
}

MetricId MetricsRegistry::counter(std::string_view name, int index, Plane plane) {
  return intern(name, index, MetricKind::kCounter, plane, {});
}

MetricId MetricsRegistry::gauge(std::string_view name, int index, Plane plane) {
  return intern(name, index, MetricKind::kGauge, plane, {});
}

MetricId MetricsRegistry::histogram(std::string_view name,
                                    std::vector<std::int64_t> bounds, int index,
                                    Plane plane) {
  return intern(name, index, MetricKind::kHistogram, plane, std::move(bounds));
}

const Metric& MetricsRegistry::at(MetricId id) const {
  BIOCHIP_REQUIRE(id.valid() && id.index < metrics_.size(), "invalid metric id");
  return metrics_[id.index];
}

void MetricsRegistry::inc(MetricId id, std::uint64_t delta) {
  BIOCHIP_REQUIRE(id.valid() && id.index < metrics_.size(), "invalid metric id");
  Metric& m = metrics_[id.index];
  BIOCHIP_REQUIRE(m.kind == MetricKind::kCounter, "inc needs a counter");
  m.value += delta;
}

void MetricsRegistry::set_counter(MetricId id, std::uint64_t value) {
  BIOCHIP_REQUIRE(id.valid() && id.index < metrics_.size(), "invalid metric id");
  Metric& m = metrics_[id.index];
  BIOCHIP_REQUIRE(m.kind == MetricKind::kCounter, "set_counter needs a counter");
  m.value = value;
}

void MetricsRegistry::set(MetricId id, std::int64_t value) {
  BIOCHIP_REQUIRE(id.valid() && id.index < metrics_.size(), "invalid metric id");
  Metric& m = metrics_[id.index];
  BIOCHIP_REQUIRE(m.kind == MetricKind::kGauge, "set needs a gauge");
  m.ivalue = value;
}

void MetricsRegistry::observe(MetricId id, std::int64_t value) {
  BIOCHIP_REQUIRE(id.valid() && id.index < metrics_.size(), "invalid metric id");
  Metric& m = metrics_[id.index];
  BIOCHIP_REQUIRE(m.kind == MetricKind::kHistogram, "observe needs a histogram");
  const auto it = std::lower_bound(m.bounds.begin(), m.bounds.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(std::distance(m.bounds.begin(), it));
  ++m.buckets[bucket];
}

const Metric* MetricsRegistry::find(std::string_view name, int index) const {
  const auto it = by_name_.find(std::make_pair(std::string(name), index));
  return it == by_name_.end() ? nullptr : &metrics_[it->second];
}

MetricsSnapshot MetricsRegistry::snapshot(int tick, bool counting_only) const {
  MetricsSnapshot snap;
  snap.tick = tick;
  snap.metrics.reserve(metrics_.size());
  for (const Metric& m : metrics_) {
    if (counting_only && m.plane != Plane::kCounting) continue;
    snap.metrics.push_back(m);
  }
  return snap;
}

}  // namespace biochip::obs
