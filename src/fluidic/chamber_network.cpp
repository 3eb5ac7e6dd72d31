#include "fluidic/chamber_network.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace biochip::fluidic {

int ChamberNetwork::add_chamber(const Microchamber& geometry, int cols, int rows) {
  validate(geometry);
  if (cols < 1 || rows < 1)
    throw ConfigError("chamber needs a positive site grid, got " +
                      std::to_string(cols) + "x" + std::to_string(rows));
  chambers_.push_back({geometry, cols, rows});
  return static_cast<int>(chambers_.size()) - 1;
}

int ChamberNetwork::add_port(int a, GridCoord a_site, int b, GridCoord b_site,
                             double channel_length, double channel_width,
                             double channel_height) {
  const auto in_chamber = [&](int id, GridCoord s) {
    const ChamberSite& c = chamber(id);
    return s.col >= 0 && s.col < c.cols && s.row >= 0 && s.row < c.rows;
  };
  BIOCHIP_REQUIRE(a != b, "a port must connect two distinct chambers");
  BIOCHIP_REQUIRE(in_chamber(a, a_site) && in_chamber(b, b_site),
                  "port sites must lie inside their chamber site grids");
  if (channel_height == 0.0)
    channel_height =
        std::min(chamber(a).geometry.height, chamber(b).geometry.height);
  if (channel_length <= 0.0 || channel_width <= 0.0 || channel_height <= 0.0)
    throw ConfigError("port channel dimensions must be positive");
  ports_.push_back({a, a_site, b, b_site, channel_length, channel_width,
                    channel_height});
  return static_cast<int>(ports_.size()) - 1;
}

int ChamberNetwork::add_inlet(int chamber_id, GridCoord site) {
  const ChamberSite& c = chamber(chamber_id);  // validates the id
  BIOCHIP_REQUIRE(site.col >= 0 && site.col < c.cols && site.row >= 0 &&
                      site.row < c.rows,
                  "inlet site must lie inside its chamber site grid");
  inlets_.push_back({chamber_id, site});
  return static_cast<int>(inlets_.size()) - 1;
}

const InletPort& ChamberNetwork::inlet(int id) const {
  BIOCHIP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < inlets_.size(),
                  "unknown inlet id");
  return inlets_[static_cast<std::size_t>(id)];
}

const ChamberSite& ChamberNetwork::chamber(int id) const {
  BIOCHIP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < chambers_.size(),
                  "unknown chamber id");
  return chambers_[static_cast<std::size_t>(id)];
}

const TransferPort& ChamberNetwork::port(int id) const {
  BIOCHIP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < ports_.size(),
                  "unknown port id");
  return ports_[static_cast<std::size_t>(id)];
}

std::vector<int> ChamberNetwork::ports_of(int chamber_id) const {
  chamber(chamber_id);  // validates
  std::vector<int> out;
  for (std::size_t p = 0; p < ports_.size(); ++p)
    if (ports_[p].a == chamber_id || ports_[p].b == chamber_id)
      out.push_back(static_cast<int>(p));
  return out;
}

std::optional<int> ChamberNetwork::port_between(int from, int to) const {
  chamber(from);
  chamber(to);
  for (std::size_t p = 0; p < ports_.size(); ++p)
    if ((ports_[p].a == from && ports_[p].b == to) ||
        (ports_[p].a == to && ports_[p].b == from))
      return static_cast<int>(p);
  return std::nullopt;
}

std::vector<int> ChamberNetwork::ports_between(int from, int to) const {
  chamber(from);
  chamber(to);
  std::vector<int> out;
  for (std::size_t p = 0; p < ports_.size(); ++p)
    if ((ports_[p].a == from && ports_[p].b == to) ||
        (ports_[p].a == to && ports_[p].b == from))
      out.push_back(static_cast<int>(p));
  return out;
}

GridCoord ChamberNetwork::port_site(int port_id, int chamber_id) const {
  const TransferPort& p = port(port_id);
  if (p.a == chamber_id) return p.a_site;
  if (p.b == chamber_id) return p.b_site;
  throw PreconditionError("port " + std::to_string(port_id) +
                          " does not touch chamber " + std::to_string(chamber_id));
}

HydraulicNetwork ChamberNetwork::hydraulics(const physics::Medium& medium) const {
  HydraulicNetwork net(medium);
  for (std::size_t c = 0; c < chambers_.size(); ++c)
    net.add_node("chamber" + std::to_string(c));
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const TransferPort& port = ports_[p];
    // channel_resistance's slot convention wants height <= width.
    const double w = std::max(port.channel_width, port.channel_height);
    const double h = std::min(port.channel_width, port.channel_height);
    net.add_channel(port.a, port.b, port.channel_length, w, h,
                    "port" + std::to_string(p));
  }
  return net;
}

}  // namespace biochip::fluidic
