#pragma once
/// \file chamber.hpp
/// \brief Microchamber geometry and filling.

#include "common/geometry.hpp"

namespace biochip::fluidic {

/// Parallel-plate microchamber over the chip (Fig. 3 of the paper: dry-resist
/// spacer walls between the CMOS die and the ITO-coated glass lid).
struct Microchamber {
  double length = 0.0;  ///< along flow [m]
  double width = 0.0;   ///< across flow [m]
  double height = 0.0;  ///< lid gap (resist spacer thickness) [m]

  double volume() const;        ///< [m³]
  /// Time to exchange one chamber volume at the given volumetric rate [s].
  double exchange_time(double flow_rate) const;
  /// Hydraulic diameter of the slot cross-section [m].
  double hydraulic_diameter() const;
};

/// Throws ConfigError unless all dimensions are positive and the aspect
/// (height << width) is slot-like (height <= width/2).
void validate(const Microchamber& chamber);

}  // namespace biochip::fluidic
