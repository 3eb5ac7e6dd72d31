#pragma once
/// \file chamber_network.hpp
/// \brief Multi-chamber lab-on-chip topology: chambers + transfer ports.
///
/// The paper's chip is explicitly a multi-site platform: several
/// microchambers share one die, connected by microfluidic channels, so many
/// cell workflows run concurrently and cells move between chambers through
/// the channels. `ChamberNetwork` is the static topology the orchestration
/// layer (`control::Orchestrator`) is driven from: each chamber carries its
/// own electrode-site grid and `Microchamber` geometry, and each
/// `TransferPort` names the site pair a hand-off passes through — a cage
/// tows its cell to the port site of the source chamber, the channel carries
/// the cell across, and the destination chamber re-cages it at its own port
/// site. The same topology doubles as a hydraulic circuit
/// (`hydraulics()` — one node per chamber, one channel per port), so
/// exchange times and port flow rates come from the existing
/// `HydraulicNetwork` nodal solve.

#include <cstddef>
#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "fluidic/chamber.hpp"
#include "fluidic/network.hpp"

namespace biochip::fluidic {

/// One chamber of the network: a parallel-plate microchamber over its own
/// `cols` × `rows` electrode-site grid.
struct ChamberSite {
  Microchamber geometry;
  int cols = 0;  ///< electrode sites across the chamber
  int rows = 0;
};

/// One inlet port: the site of a chamber where cells arrive from off-chip
/// (sample loading channel). Inlets are the sources of the open-system
/// streaming mode (`control::StreamingService`): a seeded arrival process
/// injects cells here and the admission layer cages them — or sheds them
/// when the chamber is saturated.
struct InletPort {
  int chamber = 0;
  GridCoord site;
};

/// One transfer port: a microfluidic channel connecting a site of chamber
/// `a` to a site of chamber `b` (bidirectional — hand-offs run either way).
struct TransferPort {
  int a = 0;
  GridCoord a_site;
  int b = 0;
  GridCoord b_site;
  double channel_length = 0.0;  ///< [m]
  double channel_width = 0.0;   ///< [m]
  double channel_height = 0.0;  ///< [m]; 0 = min of the two chamber heights
};

/// Static multi-chamber topology. Validated on construction of every
/// element; immutable queries afterwards.
class ChamberNetwork {
 public:
  /// Add a chamber; returns its id (dense, 0-based). Throws ConfigError on
  /// invalid geometry or a non-positive site grid.
  int add_chamber(const Microchamber& geometry, int cols, int rows);

  /// Connect two chambers with a transfer port. `a_site` / `b_site` must lie
  /// inside the respective site grids; channel dimensions must be positive
  /// (height 0 = min of the two chamber heights). Returns the port id.
  int add_port(int a, GridCoord a_site, int b, GridCoord b_site,
               double channel_length, double channel_width,
               double channel_height = 0.0);

  /// Declare an inlet: cells of the streaming arrival process enter
  /// `chamber` at `site`. Returns the inlet id (dense, 0-based — the id the
  /// arrival streams are keyed by, so it must be stable across topologies
  /// that share a prefix of inlets).
  int add_inlet(int chamber, GridCoord site);

  std::size_t chamber_count() const { return chambers_.size(); }
  std::size_t port_count() const { return ports_.size(); }
  std::size_t inlet_count() const { return inlets_.size(); }
  const ChamberSite& chamber(int id) const;
  const TransferPort& port(int id) const;
  const InletPort& inlet(int id) const;

  /// Ids of every port touching a chamber, ascending.
  std::vector<int> ports_of(int chamber) const;
  /// First port connecting `from` to `to` (either orientation), or nullopt.
  std::optional<int> port_between(int from, int to) const;
  /// Every port connecting `from` to `to` (either orientation), ascending —
  /// the escalation set a failed transfer can re-route through.
  std::vector<int> ports_between(int from, int to) const;
  bool connected(int from, int to) const { return port_between(from, to).has_value(); }

  /// Port endpoint inside `chamber` (throws when the port does not touch it).
  GridCoord port_site(int port, int chamber) const;

  /// Hydraulic circuit of the topology: one node per chamber, one
  /// rectangular channel per port. Pin pressures / inject flows on the
  /// returned network and solve; node ids equal chamber ids.
  HydraulicNetwork hydraulics(const physics::Medium& medium) const;

 private:
  std::vector<ChamberSite> chambers_;
  std::vector<TransferPort> ports_;
  std::vector<InletPort> inlets_;
};

}  // namespace biochip::fluidic
