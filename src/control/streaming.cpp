#include "control/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "core/threadpool.hpp"
#include "obs/fold.hpp"
#include "obs/obs.hpp"

namespace biochip::control {

namespace {

/// Latency histogram bins (1 tick each); one overflow bin follows.
constexpr int kLatencyBins = 512;

}  // namespace

double StreamingReport::cells_per_hour(double site_period) const {
  const double hours = static_cast<double>(ticks) * site_period / 3600.0;
  return hours > 0.0 ? static_cast<double>(delivered) / hours : 0.0;
}

int StreamingReport::latency_quantile(double q) const {
  std::uint64_t total = 0;
  for (std::uint64_t v : latency_hist) total += v;
  if (total == 0) return -1;
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  target = std::clamp<std::uint64_t>(target, 1, total);
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < latency_hist.size(); ++k) {
    cum += latency_hist[k];
    if (cum >= target) return static_cast<int>(k);
  }
  return static_cast<int>(latency_hist.size()) - 1;
}

std::uint64_t count_events(const StreamingReport& report, EventKind kind) {
  std::uint64_t n = 0;
  for (const std::vector<std::uint64_t>& chamber : report.event_counts)
    n += chamber[static_cast<std::size_t>(kind)];
  return n;
}

std::size_t sample_arrivals(const Rng& arrivals_base, int inlet, int tick,
                            double rate, const std::vector<double>& type_weights,
                            std::vector<int>& types_out) {
  types_out.clear();
  if (rate <= 0.0) return 0;
  double total = 0.0;
  for (double w : type_weights) total += w;
  Rng a = arrivals_base.fork(static_cast<std::uint64_t>(inlet))
              .fork(static_cast<std::uint64_t>(tick));
  const std::uint64_t n = a.poisson(rate);
  for (std::uint64_t k = 0; k < n; ++k) {
    const double u = a.uniform() * total;
    double cum = 0.0;
    int type = static_cast<int>(type_weights.size()) - 1;
    for (std::size_t w = 0; w < type_weights.size(); ++w) {
      cum += type_weights[w];
      if (u < cum) {
        type = static_cast<int>(w);
        break;
      }
    }
    types_out.push_back(type);
  }
  return types_out.size();
}

StreamingService::StreamingService(const fluidic::ChamberNetwork& network,
                                   StreamingConfig config)
    : network_(network), config_(std::move(config)) {
  const std::size_t n_chambers = network_.chamber_count();
  const std::size_t n_inlets = network_.inlet_count();
  BIOCHIP_REQUIRE(n_chambers >= 1, "streaming needs chambers");
  BIOCHIP_REQUIRE(n_inlets >= 1, "streaming needs at least one inlet");
  BIOCHIP_REQUIRE(config_.control.closed_loop,
                  "streaming requires the closed loop (deliveries are "
                  "confirmed by supervision)");
  BIOCHIP_REQUIRE(config_.site_period > 0.0, "site period must be positive");
  BIOCHIP_REQUIRE(config_.ticks >= 1, "service horizon must be >= 1 tick");
  BIOCHIP_REQUIRE(config_.arrival_rates.size() == n_inlets,
                  "one arrival rate per network inlet");
  for (double r : config_.arrival_rates)
    BIOCHIP_REQUIRE(r >= 0.0, "arrival rates must be non-negative");
  BIOCHIP_REQUIRE(!config_.type_weights.empty() &&
                      config_.type_weights.size() == config_.body_prototypes.size(),
                  "need one body prototype per cell-type weight");
  double weight_sum = 0.0;
  for (double w : config_.type_weights) {
    BIOCHIP_REQUIRE(w >= 0.0, "type weights must be non-negative");
    weight_sum += w;
  }
  BIOCHIP_REQUIRE(weight_sum > 0.0, "type weights must not all be zero");
  BIOCHIP_REQUIRE(config_.goal_sites.size() == n_chambers,
                  "one goal-site list per network chamber");
  for (std::size_t c = 0; c < n_chambers; ++c) {
    const fluidic::ChamberSite& site = network_.chamber(static_cast<int>(c));
    for (const GridCoord& g : config_.goal_sites[c])
      BIOCHIP_REQUIRE(g.col >= 0 && g.col < site.cols && g.row >= 0 &&
                          g.row < site.rows,
                      "goal site outside its chamber site grid");
  }
  for (std::size_t i = 0; i < n_inlets; ++i)
    BIOCHIP_REQUIRE(
        !config_.goal_sites[static_cast<std::size_t>(
                                network_.inlet(static_cast<int>(i)).chamber)]
             .empty(),
        "every chamber with an inlet needs at least one goal site");
  BIOCHIP_REQUIRE(config_.service_deadline >= 0,
                  "service deadline must be non-negative");
  // Streaming v1 runs intra-chamber service legs only — no transfer ports —
  // so a port fault could never be observed. Reject instead of ignoring.
  BIOCHIP_REQUIRE(config_.faults.rates.port_intermittent == 0.0 &&
                      config_.faults.rates.port_failed == 0.0,
                  "streaming supports chamber fault kinds only");
  for (const chip::FaultEvent& f : config_.faults.scripted)
    BIOCHIP_REQUIRE(f.kind != chip::FaultKind::kPortIntermittent &&
                        f.kind != chip::FaultKind::kPortFailed,
                    "streaming supports chamber fault kinds only");
}

namespace {

/// One admitted cell being serviced by a chamber.
struct InFlight {
  int cage_id = 0;
  int admit_tick = 0;    ///< tick of the admission (eviction deadline base)
  int arrival_tick = 0;  ///< tick it arrived at the inlet (latency base)
};

}  // namespace

StreamingReport StreamingService::run(std::vector<ChamberSetup>& chambers,
                                      Rng stream_base, core::ThreadPool* pool) {
  const std::size_t n_chambers = network_.chamber_count();
  const std::size_t n_inlets = network_.inlet_count();

  // Stream-space layout: fork(0) = arrival processes (keyed (inlet, tick) —
  // invariant to chamber count and worker count), fork(1) = fault schedule,
  // fork(2).fork(c) = chamber c's control stack.
  const Rng arrivals_base = stream_base.fork(0);
  std::vector<std::vector<CageGoal>> goals;
  goals.reserve(chambers.size());
  for (const ChamberSetup& setup : chambers) goals.push_back(setup.goals);
  ChamberFleet fleet(network_, chambers, goals, config_.site_period, config_.control,
                     config_.faults, stream_base.fork(2), stream_base.fork(1));
  BIOCHIP_REQUIRE(fleet.planned(), "a streaming chamber failed its initial plan");
  for (ChamberSetup& setup : chambers) setup.cages->set_recycle_ids(true);

  AdmissionController admission(config_.admission, n_inlets);
  std::vector<std::vector<InFlight>> in_flight(n_chambers);
  std::vector<std::size_t> next_goal(n_chambers, 0);

  StreamingReport report;
  report.latency_hist.assign(static_cast<std::size_t>(kLatencyBins) + 1, 0);
  report.event_counts.assign(n_chambers,
                             std::vector<std::uint64_t>(kEventKindCount, 0));

  // ---- telemetry (optional). Every counting-plane fold below runs in a
  // serial driver section on report-identical state, so attaching an
  // observer cannot perturb the bitwise serial-vs-pooled contract; the
  // timing plane (trace spans) is wall-clock and explicitly exempt.
  obs::MetricsRegistry* reg = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::MetricId latency_id, delivered_id, evicted_id;
  std::vector<obs::RuntimeGauges> runtime_gauges;
  const core::PoolStats pool_base =
      pool != nullptr ? pool->stats() : core::PoolStats{};
  if (obs_ != nullptr && obs_->enabled()) {
    reg = &obs_->metrics();
    trace = obs_->trace();
    fleet.set_trace(trace);
    // Pre-register everything (all event kinds × chambers included) so the
    // snapshot shape is identical from the first tick onward, whether or
    // not a given kind ever fires.
    delivered_id = reg->counter("service.delivered");
    evicted_id = reg->counter("service.evicted");
    std::vector<std::int64_t> bounds;
    for (std::int64_t b = 1; b < kLatencyBins; b *= 2) bounds.push_back(b);
    bounds.push_back(kLatencyBins);
    latency_id = reg->histogram("service.latency_ticks", std::move(bounds));
    fold_admission(*reg, admission.stats());
    for (std::size_t i = 0; i < n_inlets; ++i)
      reg->gauge("admission.queue_depth", static_cast<int>(i));
    runtime_gauges.reserve(n_chambers);
    for (std::size_t c = 0; c < n_chambers; ++c) {
      reg->gauge("service.in_flight", static_cast<int>(c));
      runtime_gauges.emplace_back(*reg, "service", static_cast<int>(c));
      fold_health(*reg, static_cast<int>(c), fleet[c].health_state());
      for (std::size_t k = 0; k < kEventKindCount; ++k)
        event_metric(*reg, static_cast<int>(c), static_cast<EventKind>(k));
    }
    reg->gauge("service.frames_sensed");
    reg->gauge("service.resident_bodies");
    reg->gauge("service.cage_slots");
    reg->counter("service.elided_ticks");
    reg->counter("service.faults_injected");
    reg->gauge("service.peak_in_flight");
    reg->gauge("service.peak_resident_bodies");
    reg->gauge("service.peak_cage_slots");
    fold_pool(*reg, core::PoolStats{});
  }

  std::vector<int> types;  // per-inlet arrival scratch, reused every tick
  for (int t = 1; t <= config_.ticks; ++t) {
    obs::PhaseTicker phase(trace, /*lane=*/-1, t);
    phase.begin("faults");
    // ---- runtime faults, serial before the fan-out (chamber kinds only;
    // port kinds were rejected at construction).
    for (const chip::FaultEvent& f : fleet.faults(t)) fleet.apply(t, f);

    // ---- arrivals, serial in ascending inlet order. Shedding happens here,
    // at the watermark — overload degrades the shed fraction, never memory.
    phase.begin("arrivals");
    for (std::size_t i = 0; i < n_inlets; ++i) {
      sample_arrivals(arrivals_base, static_cast<int>(i), t,
                      config_.arrival_rates[i], config_.type_weights, types);
      const fluidic::InletPort& inlet = network_.inlet(static_cast<int>(i));
      for (const int type : types)
        if (!admission.offer(static_cast<int>(i), t, type))
          fleet[static_cast<std::size_t>(inlet.chamber)].record_event(
              {t, EventKind::kAdmissionShed, -1, inlet.site});
    }

    // ---- idle-chamber elision, decided serially: an empty chamber (no
    // cage, no goal) has nothing to actuate, integrate or supervise; the
    // watchdog still observes (EpisodeRuntime::idle_tick).
    std::vector<std::uint8_t> elide(n_chambers, 0);
    if (config_.elide_idle_chambers) {
      for (std::size_t c = 0; c < n_chambers; ++c)
        if (fleet[c].active_goal_count() == 0 &&
            chambers[c].cages->cage_count() == 0) {
          elide[c] = 1;
          ++report.elided_chamber_ticks;
        }
    }

    // ---- barrier-synchronized chamber ticks (disjoint worlds + streams).
    phase.begin("chambers");
    fleet.step(t, elide, pool);

    // ---- harvest delivered cells (before admission, so the freed quota and
    // goal site are reusable the same tick), then evict deadline breakers —
    // a wedged delivery frees its quota explicitly instead of livelocking
    // the chamber shut.
    phase.begin("harvest");
    for (std::size_t c = 0; c < n_chambers; ++c) {
      EpisodeRuntime& rt = fleet[c];
      std::vector<InFlight>& fl = in_flight[c];
      for (std::size_t k = 0; k < fl.size();) {
        if (rt.supervises(fl[k].cage_id) &&
            rt.mode(fl[k].cage_id) == CageMode::kDelivered) {
          const int latency = t - fl[k].arrival_tick;
          const std::size_t bin =
              std::min<std::size_t>(static_cast<std::size_t>(std::max(latency, 0)),
                                    static_cast<std::size_t>(kLatencyBins));
          ++report.latency_hist[bin];
          ++report.delivered;
          if (reg != nullptr) reg->observe(latency_id, latency);
          rt.release_cage(fl[k].cage_id);
          fl.erase(fl.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ++k;
        }
      }
      if (config_.service_deadline > 0) {
        for (std::size_t k = 0; k < fl.size();) {
          if (t - fl[k].admit_tick >= config_.service_deadline) {
            rt.record_event({t, EventKind::kDeliveryFailed, fl[k].cage_id,
                             rt.site(fl[k].cage_id)});
            rt.release_cage(fl[k].cage_id);
            ++report.evicted;
            fl.erase(fl.begin() + static_cast<std::ptrdiff_t>(k));
          } else {
            ++k;
          }
        }
      }
    }

    // ---- admissions, serial in ascending inlet order: one head per inlet
    // and at most one admission per chamber per tick (one tick never floods
    // a chamber's reservation table), gated by the health-scaled chamber
    // quota and the chamber's own admission test, rotating over the
    // chamber's goal sites.
    phase.begin("admit");
    std::vector<std::uint8_t> admitted_this_tick(n_chambers, 0);
    for (std::size_t i = 0; i < n_inlets; ++i) {
      if (!admission.has_waiting(static_cast<int>(i))) continue;
      const fluidic::InletPort& inlet = network_.inlet(static_cast<int>(i));
      const std::size_t c = static_cast<std::size_t>(inlet.chamber);
      EpisodeRuntime& rt = fleet[c];
      const PendingCell head = admission.head(static_cast<int>(i));
      bool admitted = false;
      if (admitted_this_tick[c] == 0 &&
          static_cast<int>(in_flight[c].size()) <
              admission.quota(rt.health_state()) &&
          rt.site_ok(inlet.site)) {
        const std::vector<GridCoord>& sites = config_.goal_sites[c];
        for (std::size_t g = 0; g < sites.size() && !admitted; ++g) {
          const std::size_t gi = (next_goal[c] + g) % sites.size();
          const GridCoord goal = sites[gi];
          if (goal == inlet.site || !rt.site_ok(goal)) continue;
          physics::ParticleBody cell =
              config_.body_prototypes[static_cast<std::size_t>(head.type)];
          cell.id = static_cast<int>(head.seq);
          cell.position = rt.trap_center(inlet.site);
          const std::optional<int> id = rt.admit_cage(inlet.site, goal, t, cell);
          if (id.has_value()) {
            in_flight[c].push_back({*id, t, head.arrival_tick});
            admission.admit_head(static_cast<int>(i));
            admitted_this_tick[c] = 1;
            next_goal[c] = (gi + 1) % sites.size();
            admitted = true;
          }
        }
      }
      // Head-of-line cell stays queued; its FIRST deferral is audited so the
      // trail shows backpressure without growing per wait-tick.
      if (!admitted && admission.defer_head(static_cast<int>(i)))
        rt.record_event({t, EventKind::kAdmissionDeferred, -1, inlet.site});
    }
    admission.tick_waiting();

    // ---- bounded-memory upkeep: drain the observed audit trail into
    // aggregate counters and drop committed-path history behind the clock.
    phase.begin("fold");
    for (std::size_t c = 0; c < n_chambers; ++c) {
      const std::vector<ControlEvent> drained = fleet[c].take_observed_events();
      for (const ControlEvent& e : drained)
        ++report.event_counts[c][static_cast<std::size_t>(e.kind)];
      if (reg != nullptr)
        fold_events(*reg, static_cast<int>(c), drained);
      fleet[c].compact_paths(t);
    }

    // ---- residency accounting (the gates the soak smoke test holds).
    std::size_t caged = 0, resident = 0, slots = 0;
    for (std::size_t c = 0; c < n_chambers; ++c) {
      caged += in_flight[c].size();
      resident += fleet[c].resident_bodies();
      slots += chambers[c].cages->slot_count();
    }
    report.peak_in_flight =
        std::max(report.peak_in_flight, caged + admission.total_queued());
    report.peak_resident_bodies = std::max(report.peak_resident_bodies, resident);
    report.peak_cage_slots = std::max(report.peak_cage_slots, slots);

    // ---- counting-plane folds: absolute sets of the same deterministic
    // totals the report carries, once per tick from this serial section.
    if (reg != nullptr) {
      fold_admission(*reg, admission.stats());
      reg->set_counter(delivered_id, report.delivered);
      reg->set_counter(evicted_id, report.evicted);
      for (std::size_t i = 0; i < n_inlets; ++i)
        reg->set(reg->gauge("admission.queue_depth", static_cast<int>(i)),
                 static_cast<std::int64_t>(
                     admission.queue_depth(static_cast<int>(i))));
      std::size_t frames = 0;
      for (std::size_t c = 0; c < n_chambers; ++c) {
        reg->set(reg->gauge("service.in_flight", static_cast<int>(c)),
                 static_cast<std::int64_t>(in_flight[c].size()));
        runtime_gauges[c].fold(*reg, fleet[c]);
        fold_health(*reg, static_cast<int>(c), fleet[c].health_state());
        frames += fleet[c].frames_sensed();
      }
      reg->set(reg->gauge("service.frames_sensed"),
               static_cast<std::int64_t>(frames));
      reg->set(reg->gauge("service.resident_bodies"),
               static_cast<std::int64_t>(resident));
      reg->set(reg->gauge("service.cage_slots"),
               static_cast<std::int64_t>(slots));
      reg->set_counter(reg->counter("service.elided_ticks"),
                       report.elided_chamber_ticks);
      reg->set_counter(reg->counter("service.faults_injected"), fleet.injected());
      reg->set(reg->gauge("service.peak_in_flight"),
               static_cast<std::int64_t>(report.peak_in_flight));
      reg->set(reg->gauge("service.peak_resident_bodies"),
               static_cast<std::int64_t>(report.peak_resident_bodies));
      reg->set(reg->gauge("service.peak_cage_slots"),
               static_cast<std::int64_t>(report.peak_cage_slots));
      // Execution plane: this run's pool traffic so far (serial runs fold 0).
      fold_pool(*reg, pool != nullptr ? pool->stats().since(pool_base)
                                      : core::PoolStats{});
      obs_->snapshot_tick(t);
    }
  }

  report.ticks = config_.ticks;
  for (std::size_t c = 0; c < n_chambers; ++c) {
    // Final drain: no further health observation will run, so take all.
    const std::vector<ControlEvent> drained = fleet[c].take_observed_events(true);
    for (const ControlEvent& e : drained)
      ++report.event_counts[c][static_cast<std::size_t>(e.kind)];
    if (reg != nullptr) fold_events(*reg, static_cast<int>(c), drained);
    report.frames_sensed += fleet[c].frames_sensed();
    report.exact_advances += fleet[c].exact_advances();
    report.free_advances += fleet[c].free_advances();
    report.em_advances += fleet[c].em_advances();
    report.background_crossings += fleet[c].background_crossings();
    report.health.push_back(fleet[c].health_state());
    report.in_flight_end += in_flight[c].size();
  }
  report.admission = admission.stats();
  report.queued_end = admission.total_queued();
  report.injected_faults = fleet.injected();
  if (reg != nullptr) {
    fold_admission(*reg, report.admission);
    reg->set(reg->gauge("service.frames_sensed"),
             static_cast<std::int64_t>(report.frames_sensed));
    reg->set_counter(reg->counter("service.faults_injected"),
                     report.injected_faults);
  }
  return report;
}

}  // namespace biochip::control
