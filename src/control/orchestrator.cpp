#include "control/orchestrator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/threadpool.hpp"
#include "obs/fold.hpp"
#include "obs/obs.hpp"

namespace biochip::control {

const char* to_string(TransferPhase phase) {
  switch (phase) {
    case TransferPhase::kQueued: return "queued";
    case TransferPhase::kTowingToPort: return "towing_to_port";
    case TransferPhase::kAwaitingAdmission: return "awaiting_admission";
    case TransferPhase::kInDestination: return "in_destination";
    case TransferPhase::kDelivered: return "delivered";
    case TransferPhase::kFailed: return "failed";
  }
  return "unknown";
}

Orchestrator::Orchestrator(const fluidic::ChamberNetwork& network,
                           OrchestratorConfig config)
    : network_(network), config_(std::move(config)) {
  BIOCHIP_REQUIRE(network_.chamber_count() >= 1, "orchestrator needs chambers");
  BIOCHIP_REQUIRE(config_.transfer_backoff >= 1, "transfer backoff must be >= 1");
  BIOCHIP_REQUIRE(config_.max_transfer_backoff >= config_.transfer_backoff,
                  "backoff cap must be >= the base backoff");
  BIOCHIP_REQUIRE(config_.escalate_after_denials >= 0 &&
                      config_.transfer_deadline >= 0,
                  "escalation / deadline thresholds must be non-negative");
}

namespace {

/// Mutable per-transfer arbitration state.
struct TransferState {
  TransferOutcome outcome;
  GridCoord port_from;  ///< port site in the source chamber
  GridCoord port_to;    ///< port site in the destination chamber
  int cooldown = 0;     ///< ticks until the next admission attempt
  int denial_streak = 0;  ///< consecutive denials at the current port
  int request_tick = -1;  ///< tick of the live admission request (deadline timer)
  std::vector<int> tried_ports;  ///< ports already used (escalation never revisits)
};

}  // namespace

OrchestratorReport Orchestrator::run(std::vector<ChamberSetup>& chambers,
                                     const std::vector<TransferGoal>& transfers,
                                     Rng stream_base, core::ThreadPool* pool,
                                     std::size_t max_parts) {
  const std::size_t n_chambers = network_.chamber_count();
  const std::size_t n_ports = network_.port_count();
  // Before the port staging below reads the setups' cages and defects.
  ChamberFleet::check(network_, chambers);

  // Port health: a permanently failed port never carries a transfer again; an
  // intermittent outage holds admissions until `port_down_until` passes.
  std::vector<std::uint8_t> port_failed(n_ports, 0);
  std::vector<int> port_down_until(n_ports, 0);
  for (int p : config_.failed_ports) {
    BIOCHIP_REQUIRE(p >= 0 && static_cast<std::size_t>(p) < n_ports,
                    "failed_ports names an unknown port");
    port_failed[static_cast<std::size_t>(p)] = 1;
  }

  const bool closed = config_.control.closed_loop;

  // Resolve every transfer against the topology and stage the per-chamber
  // goal lists: the source chamber's supervisor sees the port site as the
  // cage's in-chamber delivery goal. Closed loop: a transfer whose source
  // port is already claimed by an earlier transfer starts `kQueued` — its
  // cage keeps a parked (goal-less) plan and receives the port goal only
  // when a port of the pair frees up, so two cages never race to one port
  // site. Open loop keeps the legacy blind behavior.
  std::vector<TransferState> states(transfers.size());
  std::vector<std::vector<CageGoal>> chamber_goals(n_chambers);
  for (std::size_t c = 0; c < n_chambers; ++c) chamber_goals[c] = chambers[c].goals;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const TransferGoal& tr = transfers[i];
    BIOCHIP_REQUIRE(tr.from_chamber >= 0 &&
                        static_cast<std::size_t>(tr.from_chamber) < n_chambers &&
                        tr.to_chamber >= 0 &&
                        static_cast<std::size_t>(tr.to_chamber) < n_chambers,
                    "transfer names an unknown chamber");
    BIOCHIP_REQUIRE(chambers[static_cast<std::size_t>(tr.to_chamber)]
                        .cages->array()
                        .contains(tr.destination),
                    "transfer destination outside the destination chamber");
    const std::vector<int> candidates =
        network_.ports_between(tr.from_chamber, tr.to_chamber);
    BIOCHIP_REQUIRE(!candidates.empty(), "no port connects the transfer's chambers");
    // Closed loop stages toward the first *viable* port — alive and with
    // both endpoint sites defect-usable — so a port the self-test already
    // condemned does not sink the whole chamber's initial plan. No viable
    // port yet (held, blocked, or failed) parks the transfer `kQueued`; the
    // per-tick activation pass below claims a port later or fails the
    // transfer explicitly. Open loop keeps the legacy blind staging.
    int port = candidates.front();
    if (closed) {
      port = -1;
      for (const int p : candidates) {
        if (port_failed[static_cast<std::size_t>(p)]) continue;
        const std::size_t from_c = static_cast<std::size_t>(tr.from_chamber);
        const std::size_t to_c = static_cast<std::size_t>(tr.to_chamber);
        if (!chip::site_usable(chambers[from_c].cages->array(),
                               *chambers[from_c].defects,
                               network_.port_site(p, tr.from_chamber),
                               config_.control.defect_ring) ||
            !chip::site_usable(chambers[to_c].cages->array(),
                               *chambers[to_c].defects,
                               network_.port_site(p, tr.to_chamber),
                               config_.control.defect_ring))
          continue;
        bool held = false;
        for (std::size_t j = 0; j < i; ++j)
          if (transfers[j].from_chamber == tr.from_chamber &&
              states[j].outcome.port_id == p &&
              states[j].outcome.phase == TransferPhase::kTowingToPort)
            held = true;
        if (held) continue;
        port = p;
        break;
      }
    }
    if (port < 0) {
      states[i].outcome.phase = TransferPhase::kQueued;
      continue;  // no staged goal: the cage parks until a port frees
    }
    states[i].outcome.port_id = port;
    states[i].port_from = network_.port_site(port, tr.from_chamber);
    states[i].port_to = network_.port_site(port, tr.to_chamber);
    states[i].tried_ports.push_back(port);
    chamber_goals[static_cast<std::size_t>(tr.from_chamber)].push_back(
        {tr.cage_id, states[i].port_from});
  }

  // One control stack per chamber on `stream_base.fork(c)`; the fault
  // schedule on the slot past the chamber space (disjoint by construction).
  ChamberFleet fleet(network_, chambers, chamber_goals, config_.site_period,
                     config_.control, config_.faults, stream_base,
                     stream_base.fork(static_cast<std::uint64_t>(n_chambers)));

  OrchestratorReport report;
  report.transfers.resize(transfers.size());
  const auto final_chamber_state = [&] {
    for (std::size_t p = 0; p < n_ports; ++p)
      if (port_failed[p]) report.failed_ports.push_back(static_cast<int>(p));
    for (std::size_t c = 0; c < n_chambers; ++c) {
      report.final_truth_defects.push_back(fleet[c].truth_defects());
      report.health.push_back(fleet[c].health_state());
    }
  };
  report.planned = fleet.planned();
  if (!report.planned) {
    // Same contract as the single-chamber engine: no episode, but complete
    // accounting — every chamber report is final, every transfer failed.
    // Transfers are accounted globally, so pull their port legs out of the
    // source chambers' books first (a failed-plan source already booked the
    // leg in its constructor; erase it from the finished report instead).
    // Queued transfers never staged a goal, so there is nothing to pull.
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      if (states[i].outcome.phase == TransferPhase::kQueued) continue;
      EpisodeRuntime& src = fleet[static_cast<std::size_t>(transfers[i].from_chamber)];
      if (src.planned()) src.drop_goal(transfers[i].cage_id);
    }
    for (std::size_t c = 0; c < n_chambers; ++c)
      report.chambers.push_back(fleet[c].finish());
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      const TransferGoal& tr = transfers[i];
      if (states[i].outcome.phase == TransferPhase::kQueued) continue;
      if (fleet[static_cast<std::size_t>(tr.from_chamber)].planned()) continue;
      std::vector<int>& failed =
          report.chambers[static_cast<std::size_t>(tr.from_chamber)].failed_ids;
      failed.erase(std::remove(failed.begin(), failed.end(), tr.cage_id),
                   failed.end());
    }
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      states[i].outcome.phase = TransferPhase::kFailed;
      report.transfers[i] = states[i].outcome;
      report.failed_transfers.push_back(i);
    }
    final_chamber_state();
    return report;
  }

  // Global tick budget: the widest chamber budget plus slack per transfer
  // (a destination leg spans at most cols + rows sites, plus backoff room).
  int budget = config_.max_ticks;
  if (budget <= 0) {
    int base = 0;
    for (std::size_t c = 0; c < n_chambers; ++c)
      base = std::max(base, fleet[c].budget());
    int slack = 0;
    for (const TransferGoal& tr : transfers) {
      const fluidic::ChamberSite& dest = network_.chamber(tr.to_chamber);
      slack += dest.cols + dest.rows + 8 * config_.transfer_backoff + 30;
    }
    budget = base + slack;
  }

  // ---- telemetry (optional): counting-plane folds of the same serial
  // arbitration totals the report carries, plus driver-phase trace spans.
  // All folds run in serial sections on report-identical state, so an
  // attached observer cannot perturb the bitwise serial-vs-pooled contract.
  obs::MetricsRegistry* reg = nullptr;
  obs::TraceRecorder* trace = nullptr;
  const core::PoolStats pool_base =
      pool != nullptr ? pool->stats() : core::PoolStats{};
  if (obs_ != nullptr && obs_->enabled()) {
    reg = &obs_->metrics();
    trace = obs_->trace();
    fleet.set_trace(trace);
    for (std::size_t c = 0; c < n_chambers; ++c) {
      fold_health(*reg, static_cast<int>(c), fleet[c].health_state());
      reg->gauge("chamber.replans", static_cast<int>(c));
      reg->gauge("chamber.exact_advances", static_cast<int>(c));
      reg->gauge("chamber.em_advances", static_cast<int>(c));
    }
    reg->counter("transfer.requests");
    reg->counter("transfer.admissions");
    reg->counter("transfer.denials");
    reg->counter("transfer.reroutes");
    reg->counter("transfer.timeouts");
    reg->counter("orchestrator.elided_ticks");
    reg->counter("orchestrator.faults_injected");
    fold_pool(*reg, core::PoolStats{});
  }
  const auto fold_tick = [&](int t) {
    if (reg == nullptr) return;
    reg->set_counter(reg->counter("transfer.requests"), report.transfer_requests);
    reg->set_counter(reg->counter("transfer.admissions"), report.admissions);
    reg->set_counter(reg->counter("transfer.denials"), report.denials);
    reg->set_counter(reg->counter("transfer.reroutes"), report.reroutes);
    reg->set_counter(reg->counter("transfer.timeouts"), report.timeouts);
    reg->set_counter(reg->counter("orchestrator.elided_ticks"),
                     report.elided_chamber_ticks);
    reg->set_counter(reg->counter("orchestrator.faults_injected"),
                     report.injected_faults.size());
    for (std::size_t c = 0; c < n_chambers; ++c) {
      fold_health(*reg, static_cast<int>(c), fleet[c].health_state());
      reg->set(reg->gauge("chamber.replans", static_cast<int>(c)),
               static_cast<std::int64_t>(fleet[c].replans()));
      reg->set(reg->gauge("chamber.exact_advances", static_cast<int>(c)),
               static_cast<std::int64_t>(fleet[c].exact_advances()));
      reg->set(reg->gauge("chamber.em_advances", static_cast<int>(c)),
               static_cast<std::int64_t>(fleet[c].em_advances()));
    }
    fold_pool(*reg, pool != nullptr ? pool->stats().since(pool_base)
                                    : core::PoolStats{});
    obs_->snapshot_tick(t);
  };

  const auto chamber_done = [&](std::size_t c, int t) {
    return closed ? fleet[c].all_delivered() : t >= fleet[c].horizon();
  };
  // True while another transfer occupies (or tows toward) a port from the
  // same side — the physical port site holds one cage at a time.
  const auto port_held = [&](int p, int from_chamber, std::size_t self) {
    for (std::size_t j = 0; j < states.size(); ++j) {
      if (j == self) continue;
      const TransferPhase ph = states[j].outcome.phase;
      if ((ph == TransferPhase::kTowingToPort ||
           ph == TransferPhase::kAwaitingAdmission) &&
          states[j].outcome.port_id == p &&
          transfers[j].from_chamber == from_chamber)
        return true;
    }
    return false;
  };

  for (int t = 1; t <= budget; ++t) {
    report.ticks = t;
    obs::PhaseTicker phase(trace, /*lane=*/-1, t);
    phase.begin("faults");

    // ---- runtime fault lifecycle, serial before the chamber fan-out so
    // every chamber sees the identical world serial or pooled: port
    // recoveries first, then this tick's injections.
    for (std::size_t p = 0; p < n_ports; ++p) {
      if (!port_failed[p] && port_down_until[p] == t) {
        const int a = network_.port(static_cast<int>(p)).a;
        fleet[static_cast<std::size_t>(a)].record_event(
            {t, EventKind::kPortRestored, static_cast<int>(p),
             network_.port_site(static_cast<int>(p), a)});
      }
    }
    for (const chip::FaultEvent& f : fleet.faults(t)) {
      report.injected_faults.push_back(f);
      if (fleet.apply(t, f)) continue;
      // A port fault: the outage or failure lands in the audit trail of the
      // port's first chamber, in schedule order.
      const auto p = static_cast<std::size_t>(f.port);
      EventKind kind = EventKind::kPortFailed;
      if (f.kind == chip::FaultKind::kPortIntermittent) {
        port_down_until[p] = std::max(port_down_until[p], t + f.duration);
        kind = EventKind::kPortDown;
      } else {
        port_failed[p] = 1;
      }
      const int a = network_.port(f.port).a;
      fleet[static_cast<std::size_t>(a)].record_event(
          {t, kind, f.port, network_.port_site(f.port, a)});
    }

    // ---- idle-chamber elision: a finished chamber referenced by no live
    // transfer skips its full tick (the watchdog still observes — see
    // EpisodeRuntime::idle_tick). Decided serially, so the fan-out below is
    // identical for any worker count.
    std::vector<std::uint8_t> elide(n_chambers, 0);
    if (closed && config_.elide_idle_chambers) {
      std::vector<std::uint8_t> referenced(n_chambers, 0);
      for (std::size_t i = 0; i < states.size(); ++i) {
        const TransferPhase ph = states[i].outcome.phase;
        if (ph == TransferPhase::kDelivered || ph == TransferPhase::kFailed)
          continue;
        referenced[static_cast<std::size_t>(transfers[i].from_chamber)] = 1;
        referenced[static_cast<std::size_t>(transfers[i].to_chamber)] = 1;
      }
      for (std::size_t c = 0; c < n_chambers; ++c)
        if (!referenced[c] && fleet[c].all_delivered()) {
          elide[c] = 1;
          ++report.elided_chamber_ticks;
        }
    }

    // ---- barrier-synchronized chamber ticks (disjoint worlds + streams).
    phase.begin("chambers");
    fleet.step(t, elide, pool, max_parts);

    phase.begin("arbitrate");
    // ---- queued transfers claim freed ports (serial, ascending order: an
    // activation makes its port held for every later queued transfer).
    if (closed) {
      for (std::size_t i = 0; i < states.size(); ++i) {
        TransferState& st = states[i];
        if (st.outcome.phase != TransferPhase::kQueued) continue;
        const TransferGoal& tr = transfers[i];
        EpisodeRuntime& src = fleet[static_cast<std::size_t>(tr.from_chamber)];
        const std::vector<int> candidates =
            network_.ports_between(tr.from_chamber, tr.to_chamber);
        bool any_alive = false;
        for (int p : candidates) {
          if (port_failed[static_cast<std::size_t>(p)]) continue;
          // Belief-blocked endpoint sites only ever get worse (defects and
          // quarantine are one-way), so such a port counts as dead here.
          if (!src.site_ok(network_.port_site(p, tr.from_chamber)) ||
              !fleet[static_cast<std::size_t>(tr.to_chamber)].site_ok(
                  network_.port_site(p, tr.to_chamber)))
            continue;
          any_alive = true;
          if (port_held(p, tr.from_chamber, i)) continue;
          st.outcome.port_id = p;
          st.port_from = network_.port_site(p, tr.from_chamber);
          st.port_to = network_.port_site(p, tr.to_chamber);
          st.tried_ports.assign(1, p);
          st.outcome.phase = TransferPhase::kTowingToPort;
          src.assign_goal(tr.cage_id, st.port_from);
          break;
        }
        if (!any_alive) {
          // Every port of the pair failed permanently (or is condemned by
          // the defect/quarantine mask) while we queued: the transfer can
          // never start — explicit failure, not a livelock.
          src.record_event({t, EventKind::kDeliveryFailed, tr.cage_id,
                            src.site(tr.cage_id)});
          st.outcome.phase = TransferPhase::kFailed;
        }
      }
    }

    // ---- serial arbitration, ascending transfer order (deterministic).
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      const TransferGoal& tr = transfers[i];
      TransferState& st = states[i];
      if (st.outcome.phase == TransferPhase::kQueued ||
          st.outcome.phase == TransferPhase::kDelivered ||
          st.outcome.phase == TransferPhase::kFailed)
        continue;
      EpisodeRuntime& src = fleet[static_cast<std::size_t>(tr.from_chamber)];
      EpisodeRuntime& dst = fleet[static_cast<std::size_t>(tr.to_chamber)];

      const auto fail_transfer = [&](int tick, GridCoord where) {
        src.record_event({tick, EventKind::kDeliveryFailed, tr.cage_id, where});
        src.drop_goal(tr.cage_id);  // accounted globally, not as a port leg
        st.outcome.phase = TransferPhase::kFailed;
      };
      // Escalate to an untried, alive, unblocked, unheld port of the same
      // chamber pair: re-tow there and restart the admission deadline.
      const auto escalate = [&]() -> bool {
        if (!closed) return false;
        for (int p : network_.ports_between(tr.from_chamber, tr.to_chamber)) {
          if (std::find(st.tried_ports.begin(), st.tried_ports.end(), p) !=
              st.tried_ports.end())
            continue;
          if (port_failed[static_cast<std::size_t>(p)]) continue;
          if (!src.site_ok(network_.port_site(p, tr.from_chamber))) continue;
          if (!dst.site_ok(network_.port_site(p, tr.to_chamber))) continue;
          if (port_held(p, tr.from_chamber, i)) continue;
          st.tried_ports.push_back(p);
          st.outcome.port_id = p;
          st.port_from = network_.port_site(p, tr.from_chamber);
          st.port_to = network_.port_site(p, tr.to_chamber);
          src.retarget(tr.cage_id, st.port_from);
          src.record_event(
              {t, EventKind::kTransferRerouted, tr.cage_id, st.port_from});
          ++st.outcome.reroutes;
          ++report.reroutes;
          st.outcome.phase = TransferPhase::kTowingToPort;
          st.request_tick = -1;
          st.denial_streak = 0;
          st.cooldown = 0;
          return true;
        }
        return false;
      };

      if (st.outcome.phase == TransferPhase::kTowingToPort) {
        // Closed loop reacts mid-tow when the chosen port dies or either
        // port site gets defect-blocked: re-route to an alternate port now
        // instead of finishing a doomed tow.
        if (closed && (port_failed[static_cast<std::size_t>(st.outcome.port_id)] ||
                       !src.site_ok(st.port_from) || !dst.site_ok(st.port_to))) {
          if (!escalate()) {
            fail_transfer(t, src.site(tr.cage_id));
            continue;
          }
        }
        // Closed loop: the source supervisor confirms port delivery (cell
        // present by tracker hysteresis). Open loop: blind hand-off on the
        // ground-truth cage position, cell or no cell.
        const bool at_port =
            closed ? (src.supervises(tr.cage_id) &&
                      src.mode(tr.cage_id) == CageMode::kDelivered)
                   : (src.site(tr.cage_id) == st.port_from);
        if (at_port) {
          st.outcome.phase = TransferPhase::kAwaitingAdmission;
          st.request_tick = t;
          src.record_event({t, EventKind::kTransferRequested, tr.cage_id, st.port_from});
          ++report.transfer_requests;
        }
      }

      if (st.outcome.phase == TransferPhase::kAwaitingAdmission) {
        // Admission deadline: a transfer does not wait at a port forever.
        if (config_.transfer_deadline > 0 && st.request_tick >= 0 &&
            t - st.request_tick >= config_.transfer_deadline) {
          src.record_event(
              {t, EventKind::kTransferTimedOut, tr.cage_id, st.port_from});
          st.outcome.timed_out = true;
          ++report.timeouts;
          fail_transfer(t, st.port_from);
          continue;
        }
        // A defect-blocked final destination can never be routed to, and a
        // quarantined destination chamber admits nothing: explicit permanent
        // failure, not an infinite backoff (an alternate port cannot help).
        if (!dst.site_ok(tr.destination) ||
            dst.health_state() == HealthState::kQuarantined) {
          fail_transfer(t, st.port_from);
          continue;
        }
        // A dead port or a defect-blocked receiving site: escalate to an
        // alternate port of the pair, or fail explicitly when none is left.
        if (port_failed[static_cast<std::size_t>(st.outcome.port_id)] ||
            !dst.site_ok(st.port_to)) {
          if (!escalate()) fail_transfer(t, st.port_from);
          continue;
        }
        // Intermittent outage: hold — no denial booked, no backoff grown,
        // but the admission deadline keeps running.
        if (t < port_down_until[static_cast<std::size_t>(st.outcome.port_id)])
          continue;
        if (st.cooldown > 0) {
          --st.cooldown;
          continue;
        }
        ++st.outcome.requests;
        // Stage the cell into the destination frame: the channel carries it
        // port-to-port, preserving its offset from the trap center (a cell
        // the source lost stays lost — open-loop hand-offs ship an offset
        // that no destination trap will hold).
        physics::ParticleBody cell = src.body_of(tr.cage_id);
        const Vec3 offset = cell.position - src.trap_center(st.port_from);
        const Aabb bounds =
            chambers[static_cast<std::size_t>(tr.to_chamber)].engine->integrator()
                .options().bounds;
        cell.position = bounds.clamp(dst.trap_center(st.port_to) + offset);
        const auto dest_id = dst.admit_cage(st.port_to, tr.destination, t, cell);
        if (!dest_id.has_value()) {
          ++st.outcome.denials;
          ++report.denials;
          ++st.denial_streak;
          src.record_event({t, EventKind::kTransferDenied, tr.cage_id, st.port_from});
          // Escalate after a denial streak; otherwise back off exponentially
          // (capped) — a congested or degraded destination is not hammered.
          if (config_.escalate_after_denials > 0 &&
              st.denial_streak >= config_.escalate_after_denials && escalate())
            continue;
          const int shift = std::min(st.denial_streak - 1, 16);
          st.cooldown = std::min(config_.max_transfer_backoff,
                                 config_.transfer_backoff << shift);
          continue;
        }
        src.release_cage(tr.cage_id);
        st.outcome.phase = TransferPhase::kInDestination;
        st.outcome.dest_cage_id = *dest_id;
        st.outcome.handoff_tick = t;
        st.denial_streak = 0;
        ++report.admissions;
      }

      if (st.outcome.phase == TransferPhase::kInDestination && closed &&
          dst.supervises(st.outcome.dest_cage_id) &&
          dst.mode(st.outcome.dest_cage_id) == CageMode::kDelivered) {
        st.outcome.phase = TransferPhase::kDelivered;
      }
    }

    fold_tick(t);

    // ---- global termination: every transfer terminal or in its final leg
    // with the destination done, every chamber done.
    bool done = true;
    for (const TransferState& st : states)
      if (st.outcome.phase == TransferPhase::kQueued ||
          st.outcome.phase == TransferPhase::kTowingToPort ||
          st.outcome.phase == TransferPhase::kAwaitingAdmission ||
          (st.outcome.phase == TransferPhase::kInDestination && closed))
        done = false;
    if (done)
      for (std::size_t c = 0; c < n_chambers && done; ++c)
        done = chamber_done(c, t);
    if (done) break;
  }

  // ---- ground-truth accounting: chamber reports first, then transfers
  // judged against the destination chamber's delivered list. A transfer
  // stuck short of admission is a *global* failure: pull its port leg out of
  // the source chamber's books (no double counting) and make the failure an
  // explicit event there. A still-queued transfer never staged a goal — only
  // the explicit failure event is owed.
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    TransferState& st = states[i];
    EpisodeRuntime& src = fleet[static_cast<std::size_t>(transfers[i].from_chamber)];
    if (st.outcome.phase == TransferPhase::kQueued) {
      src.record_event({report.ticks, EventKind::kDeliveryFailed,
                        transfers[i].cage_id, src.site(transfers[i].cage_id)});
      continue;
    }
    if (st.outcome.phase != TransferPhase::kTowingToPort &&
        st.outcome.phase != TransferPhase::kAwaitingAdmission)
      continue;
    src.record_event({report.ticks, EventKind::kDeliveryFailed, transfers[i].cage_id,
                      src.site(transfers[i].cage_id)});
    src.drop_goal(transfers[i].cage_id);
  }
  for (std::size_t c = 0; c < n_chambers; ++c)
    report.chambers.push_back(fleet[c].finish());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    TransferState& st = states[i];
    if (st.outcome.phase == TransferPhase::kInDestination ||
        st.outcome.phase == TransferPhase::kDelivered) {
      // Judge by the destination chamber's ground truth, then move the leg
      // out of that chamber's books: chamber reports carry intra-chamber
      // goals only, transfers are accounted once, here (events stay — the
      // audit trail is per chamber).
      EpisodeReport& dest =
          report.chambers[static_cast<std::size_t>(transfers[i].to_chamber)];
      const auto in_list = [&](std::vector<int>& ids) {
        const auto it = std::find(ids.begin(), ids.end(), st.outcome.dest_cage_id);
        if (it == ids.end()) return false;
        ids.erase(it);
        return true;
      };
      const bool delivered = in_list(dest.delivered_ids);
      if (!delivered) in_list(dest.failed_ids);
      // The erased leg may have been the chamber's only failure.
      dest.success = dest.planned && dest.failed_ids.empty();
      st.outcome.phase = delivered ? TransferPhase::kDelivered : TransferPhase::kFailed;
    } else if (st.outcome.phase != TransferPhase::kFailed) {
      // Never reached the port / never admitted within the budget.
      st.outcome.phase = TransferPhase::kFailed;
    }
    report.transfers[i] = st.outcome;
    if (st.outcome.phase == TransferPhase::kDelivered)
      report.delivered_transfers.push_back(i);
    else
      report.failed_transfers.push_back(i);
  }
  final_chamber_state();
  fold_tick(report.ticks);
  return report;
}

}  // namespace biochip::control
