#include "control/fleet.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/threadpool.hpp"

namespace biochip::control {

namespace {

std::vector<chip::ChamberShape> chamber_shapes(const fluidic::ChamberNetwork& network) {
  std::vector<chip::ChamberShape> shapes;
  shapes.reserve(network.chamber_count());
  for (std::size_t c = 0; c < network.chamber_count(); ++c) {
    const fluidic::ChamberSite& site = network.chamber(static_cast<int>(c));
    shapes.push_back({site.cols, site.rows});
  }
  return shapes;
}

}  // namespace

void ChamberFleet::check(const fluidic::ChamberNetwork& network,
                         const std::vector<ChamberSetup>& chambers) {
  BIOCHIP_REQUIRE(chambers.size() == network.chamber_count(),
                  "one ChamberSetup per network chamber");
  for (std::size_t c = 0; c < chambers.size(); ++c) {
    const ChamberSetup& setup = chambers[c];
    BIOCHIP_REQUIRE(setup.cages != nullptr && setup.engine != nullptr &&
                        setup.imager != nullptr && setup.defects != nullptr &&
                        setup.bodies != nullptr,
                    "chamber setup is incomplete");
    const fluidic::ChamberSite& site = network.chamber(static_cast<int>(c));
    BIOCHIP_REQUIRE(setup.cages->array().cols() == site.cols &&
                        setup.cages->array().rows() == site.rows,
                    "chamber world does not match the network site grid");
  }
}

ChamberFleet::ChamberFleet(const fluidic::ChamberNetwork& network,
                           std::vector<ChamberSetup>& chambers,
                           const std::vector<std::vector<CageGoal>>& goals,
                           double site_period, const ControlConfig& control,
                           const chip::FaultScheduleConfig& faults,
                           Rng chamber_streams, Rng fault_stream)
    : injector_(faults, chamber_shapes(network), network.port_count(), fault_stream) {
  check(network, chambers);
  BIOCHIP_REQUIRE(goals.size() == chambers.size(), "one goal list per chamber");
  engines_.reserve(chambers.size());
  runtimes_.reserve(chambers.size());
  for (std::size_t c = 0; c < chambers.size(); ++c) {
    ChamberSetup& setup = chambers[c];
    engines_.push_back(std::make_unique<ClosedLoopEngine>(
        *setup.cages, *setup.engine, *setup.imager, *setup.defects, site_period,
        control));
    runtimes_.push_back(std::make_unique<EpisodeRuntime>(
        *engines_.back(), goals[c], *setup.bodies, setup.cage_bodies,
        chamber_streams.fork(static_cast<std::uint64_t>(c)), nullptr));
  }
}

bool ChamberFleet::planned() const {
  return std::all_of(runtimes_.begin(), runtimes_.end(),
                     [](const auto& r) { return r->planned(); });
}

bool ChamberFleet::apply(int t, const chip::FaultEvent& fault) {
  switch (fault.kind) {
    case chip::FaultKind::kElectrodeDead:
    case chip::FaultKind::kElectrodeStuckCage:
    case chip::FaultKind::kElectrodeSilentDead:
      runtimes_[static_cast<std::size_t>(fault.chamber)]->apply_electrode_fault(
          t, fault.site, fault.kind);
      return true;
    case chip::FaultKind::kSensorRowDropout:
      runtimes_[static_cast<std::size_t>(fault.chamber)]->begin_sensor_dropout(
          t, fault.site.row, fault.duration);
      return true;
    case chip::FaultKind::kSensorPixelBurst:
      runtimes_[static_cast<std::size_t>(fault.chamber)]->begin_sensor_burst(
          t, fault.site, chip::kBurstTile, fault.duration);
      return true;
    case chip::FaultKind::kPortIntermittent:
    case chip::FaultKind::kPortFailed:
      return false;
  }
  return false;
}

void ChamberFleet::set_trace(obs::TraceRecorder* trace) {
  for (std::size_t c = 0; c < runtimes_.size(); ++c)
    runtimes_[c]->set_trace(trace, static_cast<int>(c));
}

void ChamberFleet::step(int t, const std::vector<std::uint8_t>& idle,
                        core::ThreadPool* pool) {
  BIOCHIP_REQUIRE(idle.size() == runtimes_.size(), "one idle flag per chamber");
  const auto step_range = [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      if (idle[c]) runtimes_[c]->idle_tick(t);
      else runtimes_[c]->tick(t);
    }
  };
  if (pool != nullptr) pool->parallel_for(0, runtimes_.size(), step_range);
  else step_range(0, runtimes_.size());
}

}  // namespace biochip::control
