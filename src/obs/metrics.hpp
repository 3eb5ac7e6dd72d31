#pragma once
/// \file metrics.hpp
/// \brief Counting-plane telemetry: a deterministic registry of counters,
/// gauges and fixed-bucket histograms.
///
/// The observability layer is split into two planes (docs/observability.md):
///
///  * the **counting plane** (this file) holds integer counters, gauges and
///    fixed-bucket histograms. Every update is driven from serial driver
///    sections (arrival / harvest / admission / arbitration passes, event
///    drains) or from values that are themselves bitwise-deterministic, so a
///    `MetricsSnapshot` is **bitwise identical** between serial and pooled
///    runs — enforced by the same identity suites that pin the streaming and
///    orchestrator reports;
///  * the **timing plane** (trace.hpp) reads the wall clock and is
///    explicitly nondeterministic.
///
/// Metrics carry a `Plane` tag. `Plane::kCounting` metrics participate in
/// the serial-vs-pooled identity contract. `Plane::kExecution` metrics
/// (thread-pool job/chunk accounting) are deterministic for a *fixed*
/// worker configuration but legitimately differ between serial and pooled
/// runs (a serial run never dispatches pool jobs), so identity comparisons
/// use `snapshot(tick, /*counting_only=*/true)`.
///
/// Registration is find-or-create keyed on (name, index): folding the same
/// metric every tick touches one `std::map` lookup, and the registry's
/// iteration order is registration order — deterministic because all
/// registration happens in serial sections.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace biochip::obs {

/// Schema version stamped into every exported snapshot (export.hpp).
inline constexpr int kMetricsSchemaVersion = 1;

enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotone non-negative total
  kGauge,      ///< signed instantaneous value
  kHistogram,  ///< fixed upper-bound buckets + one overflow bucket
};

enum class Plane : std::uint8_t {
  kCounting,   ///< deterministic; serial-vs-pooled identity enforced
  kExecution,  ///< worker-config dependent (pool stats); identity-exempt
};

const char* to_string(MetricKind kind);
const char* to_string(Plane plane);

/// Opaque handle returned by registration; cheap to copy and store.
struct MetricId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};

/// One metric's full state. `index` scopes a metric to a chamber or inlet
/// (-1 = global); the catalog in docs/observability.md says which.
struct Metric {
  std::string name;
  int index = -1;
  MetricKind kind = MetricKind::kCounter;
  Plane plane = Plane::kCounting;
  std::uint64_t value = 0;               ///< kCounter
  std::int64_t ivalue = 0;               ///< kGauge
  std::vector<std::int64_t> bounds;      ///< kHistogram: ascending upper bounds
  std::vector<std::uint64_t> buckets;    ///< bounds.size() + 1 (last = overflow)

  bool operator==(const Metric&) const = default;
};

/// Comparable point-in-time copy of the registry (identity tests use `==`).
struct MetricsSnapshot {
  int schema = kMetricsSchemaVersion;
  int tick = 0;
  std::vector<Metric> metrics;

  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  /// Find-or-create. Re-registering the same (name, index) returns the same
  /// id and requires the same kind; a kind mismatch throws.
  MetricId counter(std::string_view name, int index = -1,
                   Plane plane = Plane::kCounting);
  MetricId gauge(std::string_view name, int index = -1,
                 Plane plane = Plane::kCounting);
  /// `bounds` are ascending inclusive upper bounds; an observation above the
  /// last bound lands in the overflow bucket.
  MetricId histogram(std::string_view name, std::vector<std::int64_t> bounds,
                     int index = -1, Plane plane = Plane::kCounting);

  void inc(MetricId id, std::uint64_t delta = 1);
  /// Absolute fold of an externally maintained total (e.g. AdmissionStats).
  void set_counter(MetricId id, std::uint64_t value);
  void set(MetricId id, std::int64_t value);
  /// Histogram observation: first bucket with `value <= bound`, else overflow.
  void observe(MetricId id, std::int64_t value);

  std::size_t size() const { return metrics_.size(); }
  const Metric& at(MetricId id) const;
  /// Lookup by (name, index); nullptr when never registered.
  const Metric* find(std::string_view name, int index = -1) const;

  /// Copy the registry in registration order. `counting_only` drops
  /// Plane::kExecution metrics — the form identity tests compare.
  MetricsSnapshot snapshot(int tick, bool counting_only = false) const;

 private:
  MetricId intern(std::string_view name, int index, MetricKind kind, Plane plane,
                  std::vector<std::int64_t> bounds);

  std::vector<Metric> metrics_;
  /// Deterministically ordered lookup (never iterated for output — the
  /// vector above owns the export order).
  std::map<std::pair<std::string, int>, std::size_t> by_name_;
};

}  // namespace biochip::obs
