#include "control/admission.hpp"

#include "common/error.hpp"

namespace biochip::control {

AdmissionController::AdmissionController(AdmissionConfig config, std::size_t n_inlets)
    : config_(config), queues_(n_inlets) {
  BIOCHIP_REQUIRE(config_.queue_capacity >= 1, "inlet queues need capacity >= 1");
  BIOCHIP_REQUIRE(config_.chamber_quota >= 1, "chamber quota must be >= 1");
  BIOCHIP_REQUIRE(config_.degraded_quota >= 0, "degraded quota must be >= 0");
}

std::size_t AdmissionController::check(int inlet) const {
  BIOCHIP_REQUIRE(inlet >= 0 && static_cast<std::size_t>(inlet) < queues_.size(),
                  "unknown inlet id");
  return static_cast<std::size_t>(inlet);
}

bool AdmissionController::offer(int inlet, int tick, int type) {
  std::deque<PendingCell>& q = queues_[check(inlet)];
  ++stats_.offered;
  const std::uint64_t seq = next_seq_++;
  if (q.size() >= static_cast<std::size_t>(config_.queue_capacity)) {
    ++stats_.shed;
    return false;
  }
  q.push_back({seq, tick, type, false});
  return true;
}

const PendingCell& AdmissionController::head(int inlet) const {
  const std::deque<PendingCell>& q = queues_[check(inlet)];
  BIOCHIP_REQUIRE(!q.empty(), "inlet queue is empty");
  return q.front();
}

void AdmissionController::admit_head(int inlet) {
  std::deque<PendingCell>& q = queues_[check(inlet)];
  BIOCHIP_REQUIRE(!q.empty(), "inlet queue is empty");
  q.pop_front();
  ++stats_.admitted;
}

bool AdmissionController::defer_head(int inlet) {
  std::deque<PendingCell>& q = queues_[check(inlet)];
  BIOCHIP_REQUIRE(!q.empty(), "inlet queue is empty");
  if (q.front().deferred) return false;
  q.front().deferred = true;
  ++stats_.deferrals;
  return true;
}

int AdmissionController::quota(HealthState state) const {
  switch (state) {
    case HealthState::kNormal: return config_.chamber_quota;
    case HealthState::kDegraded: return config_.degraded_quota;
    case HealthState::kQuarantined: return 0;
  }
  return 0;
}

std::size_t AdmissionController::total_queued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void AdmissionController::tick_waiting() {
  stats_.queue_wait_ticks += total_queued();
}

}  // namespace biochip::control
