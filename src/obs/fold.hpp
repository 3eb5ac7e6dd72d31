#pragma once
/// \file fold.hpp
/// \brief Fold adapters: existing deterministic state → counting-plane
/// metrics.
///
/// The control stack already maintains exact, serial-vs-pooled-identical
/// accounting (`AdmissionStats`, drained `ControlEvent` streams,
/// `HealthMonitor` rungs). These adapters fold that state into
/// a `MetricsRegistry` instead of instrumenting hot paths twice — the
/// registry mirrors the sums the identity suites already pin, which is what
/// makes the accounting-closure cross-checks in tests/test_obs.cpp exact
/// (registry totals == report totals, not approximately).
///
/// Callers run every fold in a serial driver section; the adapters are not
/// thread-safe by design (docs/observability.md, "Counting plane").

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#include "control/admission.hpp"
#include "control/events.hpp"
#include "control/health.hpp"
#include "obs/metrics.hpp"

namespace biochip::control {
class EpisodeRuntime;
}
namespace biochip::core {
struct PoolStats;
}

namespace biochip::obs {

/// Absolute fold of the admission totals (idempotent per tick):
/// admission.{offered,shed,deferrals,admitted,queue_wait_ticks}.
void fold_admission(MetricsRegistry& registry,
                    const control::AdmissionStats& stats);

/// Pre-register (or look up) the per-chamber counter of one event kind:
/// `event.<slug>` at index `chamber`. Registering all kinds up front keeps
/// the snapshot shape identical whether or not a kind ever fires.
MetricId event_metric(MetricsRegistry& registry, int chamber,
                      control::EventKind kind);

/// Increment per-kind counters for a drained event batch of one chamber.
void fold_events(MetricsRegistry& registry, int chamber,
                 const std::vector<control::ControlEvent>& events);

/// The per-chamber runtime gauges both network drivers fold every tick:
/// `<prefix>.{replans,exact_advances,free_advances,em_advances,
/// background_crossings}` at index `chamber`, absolute sets of the chamber
/// runtime's totals. Construction registers (or looks up) the five gauges,
/// in that order, when an observer attaches; `fold` then sets them by id,
/// with no name lookup per tick.
class RuntimeGauges {
 public:
  RuntimeGauges(MetricsRegistry& registry, std::string_view prefix, int chamber);
  void fold(MetricsRegistry& registry, const control::EpisodeRuntime& runtime) const;

 private:
  std::array<MetricId, 5> ids_;
};

/// Gauge `health.state` at index `chamber` (0 normal / 1 degraded /
/// 2 quarantined — the ladder rung as an integer).
void fold_health(MetricsRegistry& registry, int chamber,
                 control::HealthState state);

/// Execution-plane fold of a thread-pool stats delta:
/// pool.{jobs,chunks} counters + pool.max_parts gauge. Tagged
/// `Plane::kExecution` — a serial run dispatches no jobs, so these are
/// exempt from the serial-vs-pooled identity contract by construction.
void fold_pool(MetricsRegistry& registry, const core::PoolStats& delta);

}  // namespace biochip::obs
