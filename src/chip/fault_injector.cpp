#include "chip/fault_injector.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biochip::chip {

namespace {

/// Ticks a sampled row dropout, pixel burst and intermittent port outage last.
constexpr int kSensorDropoutDuration = 4;
constexpr int kSensorBurstDuration = 2;
constexpr int kPortDownDuration = 25;

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kElectrodeDead: return "electrode_dead";
    case FaultKind::kElectrodeStuckCage: return "electrode_stuck_cage";
    case FaultKind::kElectrodeSilentDead: return "electrode_silent_dead";
    case FaultKind::kSensorRowDropout: return "sensor_row_dropout";
    case FaultKind::kSensorPixelBurst: return "sensor_pixel_burst";
    case FaultKind::kPortIntermittent: return "port_intermittent";
    case FaultKind::kPortFailed: return "port_failed";
  }
  return "unknown";
}

FaultInjector::FaultInjector(FaultScheduleConfig config,
                             std::vector<ChamberShape> chambers, std::size_t n_ports,
                             Rng stream)
    : config_(std::move(config)), chambers_(std::move(chambers)), n_ports_(n_ports),
      stream_(stream), electrode_fired_(chambers_.size(), 0) {
  const FaultRates& r = config_.rates;
  sampling_ = r.electrode_dead > 0.0 || r.electrode_stuck_cage > 0.0 ||
              r.electrode_silent_dead > 0.0 || r.sensor_row_dropout > 0.0 ||
              r.sensor_pixel_burst > 0.0 || r.port_intermittent > 0.0 ||
              r.port_failed > 0.0;
  for (const ChamberShape& shape : chambers_)
    BIOCHIP_REQUIRE(shape.cols >= 1 && shape.rows >= 1,
                    "fault injector needs positive chamber site grids");
  for (const FaultEvent& f : config_.scripted) {
    const bool port_fault =
        f.kind == FaultKind::kPortIntermittent || f.kind == FaultKind::kPortFailed;
    if (port_fault) {
      BIOCHIP_REQUIRE(f.port >= 0 && static_cast<std::size_t>(f.port) < n_ports_,
                      "scripted port fault names an unknown port");
    } else {
      BIOCHIP_REQUIRE(f.chamber >= 0 &&
                          static_cast<std::size_t>(f.chamber) < chambers_.size(),
                      "scripted chamber fault names an unknown chamber");
    }
  }
  // Scripted entries must already be in firing order (keeps tick() a linear
  // scan and the emitted order the documented one).
  BIOCHIP_REQUIRE(
      std::is_sorted(config_.scripted.begin(), config_.scripted.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.tick < b.tick;
                     }),
      "scripted faults must be sorted by tick");
}

std::size_t FaultInjector::electrode_faults(int chamber) const {
  BIOCHIP_REQUIRE(chamber >= 0 &&
                      static_cast<std::size_t>(chamber) < electrode_fired_.size(),
                  "unknown chamber");
  return electrode_fired_[static_cast<std::size_t>(chamber)];
}

std::vector<FaultEvent> FaultInjector::tick(int t) {
  BIOCHIP_REQUIRE(t > last_tick_, "fault schedule ticks must strictly increase");
  last_tick_ = t;
  std::vector<FaultEvent> fired;

  // ---- scripted faults, input order.
  while (next_scripted_ < config_.scripted.size() &&
         config_.scripted[next_scripted_].tick <= t) {
    FaultEvent f = config_.scripted[next_scripted_++];
    f.tick = t;
    fired.push_back(f);
  }
  if (sampling_) sample(t, fired);
  injected_ += fired.size();
  return fired;
}

void FaultInjector::sample(int t, std::vector<FaultEvent>& fired) {
  // ---- per-chamber streams keyed (chamber, t). Each kind draws in a fixed
  // order from the same stream, so the schedule is a pure function of
  // (seed, chamber, t).
  const FaultRates& rates = config_.rates;
  for (std::size_t c = 0; c < chambers_.size(); ++c) {
    const ChamberShape& shape = chambers_[c];
    Rng rng = stream_.fork(c).fork(static_cast<std::uint64_t>(t));
    const auto sample_site = [&]() -> GridCoord {
      return {static_cast<int>(rng.uniform_int(0, shape.cols - 1)),
              static_cast<int>(rng.uniform_int(0, shape.rows - 1))};
    };
    const auto electrode_ok = [&]() {
      return config_.max_electrode_faults_per_chamber == 0 ||
             electrode_fired_[c] < config_.max_electrode_faults_per_chamber;
    };
    const auto emit_electrode = [&](FaultKind kind) {
      // The site draw always happens so the stream position never depends on
      // the cap; the cap only suppresses the emission (counters are a pure
      // function of earlier ticks, so the schedule stays order-independent).
      const GridCoord site = sample_site();
      if (!electrode_ok()) return;
      ++electrode_fired_[c];
      fired.push_back({t, kind, static_cast<int>(c), site, -1, 0});
    };
    if (rates.electrode_dead > 0.0 && rng.bernoulli(rates.electrode_dead))
      emit_electrode(FaultKind::kElectrodeDead);
    if (rates.electrode_stuck_cage > 0.0 && rng.bernoulli(rates.electrode_stuck_cage))
      emit_electrode(FaultKind::kElectrodeStuckCage);
    if (rates.electrode_silent_dead > 0.0 &&
        rng.bernoulli(rates.electrode_silent_dead))
      emit_electrode(FaultKind::kElectrodeSilentDead);
    if (rates.sensor_row_dropout > 0.0 && rng.bernoulli(rates.sensor_row_dropout)) {
      const int row = static_cast<int>(rng.uniform_int(0, shape.rows - 1));
      fired.push_back({t, FaultKind::kSensorRowDropout, static_cast<int>(c),
                       {0, row}, -1, kSensorDropoutDuration});
    }
    if (rates.sensor_pixel_burst > 0.0 && rng.bernoulli(rates.sensor_pixel_burst)) {
      const GridCoord origin{
          static_cast<int>(rng.uniform_int(0, std::max(0, shape.cols - kBurstTile))),
          static_cast<int>(rng.uniform_int(0, std::max(0, shape.rows - kBurstTile)))};
      fired.push_back({t, FaultKind::kSensorPixelBurst, static_cast<int>(c), origin,
                       -1, kSensorBurstDuration});
    }
  }

  // ---- sampled port faults: per-port streams keyed (n_chambers + port, t).
  for (std::size_t p = 0; p < n_ports_; ++p) {
    Rng rng = stream_.fork(chambers_.size() + p).fork(static_cast<std::uint64_t>(t));
    if (rates.port_intermittent > 0.0 && rng.bernoulli(rates.port_intermittent))
      fired.push_back({t, FaultKind::kPortIntermittent, -1, {}, static_cast<int>(p),
                       kPortDownDuration});
    if (rates.port_failed > 0.0 && rng.bernoulli(rates.port_failed))
      fired.push_back({t, FaultKind::kPortFailed, -1, {}, static_cast<int>(p), 0});
  }
}

}  // namespace biochip::chip
