#include "obs/fold.hpp"

#include <string>

#include "control/engine.hpp"
#include "core/threadpool.hpp"

namespace biochip::obs {

void fold_admission(MetricsRegistry& registry,
                    const control::AdmissionStats& stats) {
  registry.set_counter(registry.counter("admission.offered"), stats.offered);
  registry.set_counter(registry.counter("admission.shed"), stats.shed);
  registry.set_counter(registry.counter("admission.deferrals"), stats.deferrals);
  registry.set_counter(registry.counter("admission.admitted"), stats.admitted);
  registry.set_counter(registry.counter("admission.queue_wait_ticks"),
                       stats.queue_wait_ticks);
}

MetricId event_metric(MetricsRegistry& registry, int chamber,
                      control::EventKind kind) {
  return registry.counter(std::string("event.") + control::to_string(kind),
                          chamber);
}

void fold_events(MetricsRegistry& registry, int chamber,
                 const std::vector<control::ControlEvent>& events) {
  for (const control::ControlEvent& e : events)
    registry.inc(event_metric(registry, chamber, e.kind));
}

RuntimeGauges::RuntimeGauges(MetricsRegistry& registry, std::string_view prefix,
                             int chamber) {
  const std::string base(prefix);
  ids_ = {registry.gauge(base + ".replans", chamber),
          registry.gauge(base + ".exact_advances", chamber),
          registry.gauge(base + ".free_advances", chamber),
          registry.gauge(base + ".em_advances", chamber),
          registry.gauge(base + ".background_crossings", chamber)};
}

void RuntimeGauges::fold(MetricsRegistry& registry,
                         const control::EpisodeRuntime& runtime) const {
  const std::array<std::size_t, 5> values = {
      runtime.replans(), runtime.exact_advances(), runtime.free_advances(),
      runtime.em_advances(), runtime.background_crossings()};
  for (std::size_t k = 0; k < ids_.size(); ++k)
    registry.set(ids_[k], static_cast<std::int64_t>(values[k]));
}

void fold_health(MetricsRegistry& registry, int chamber,
                 control::HealthState state) {
  registry.set(registry.gauge("health.state", chamber),
               static_cast<std::int64_t>(state));
}

void fold_pool(MetricsRegistry& registry, const core::PoolStats& delta) {
  registry.set_counter(
      registry.counter("pool.jobs", -1, Plane::kExecution), delta.jobs);
  registry.set_counter(
      registry.counter("pool.chunks", -1, Plane::kExecution), delta.chunks);
  registry.set(registry.gauge("pool.max_parts", -1, Plane::kExecution),
               static_cast<std::int64_t>(delta.max_parts));
}

}  // namespace biochip::obs
