#include "fluidic/chamber.hpp"

#include "common/error.hpp"

namespace biochip::fluidic {

double Microchamber::volume() const { return length * width * height; }

double Microchamber::exchange_time(double flow_rate) const {
  BIOCHIP_REQUIRE(flow_rate > 0.0, "flow rate must be positive");
  return volume() / flow_rate;
}

double Microchamber::hydraulic_diameter() const {
  // Slot: D_h = 4A/P = 4wh / (2(w+h)) ≈ 2h for w >> h.
  return 4.0 * width * height / (2.0 * (width + height));
}

void validate(const Microchamber& chamber) {
  if (!(chamber.length > 0.0 && chamber.width > 0.0 && chamber.height > 0.0))
    throw ConfigError("chamber dimensions must be positive");
  if (chamber.height > 0.5 * chamber.width)
    throw ConfigError("chamber is not slot-like (height must be <= width/2)");
}

}  // namespace biochip::fluidic
