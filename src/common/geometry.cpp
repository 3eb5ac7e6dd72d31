#include "common/geometry.hpp"

#include <ostream>

namespace biochip {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << "(" << v.x << ", " << v.y << ")";
}
std::ostream& operator<<(std::ostream& os, Vec3 v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}
std::ostream& operator<<(std::ostream& os, GridCoord c) {
  return os << "[" << c.col << ", " << c.row << "]";
}

Vec3 Aabb::clamp(Vec3 p) const {
  return {biochip::clamp(p.x, min.x, max.x), biochip::clamp(p.y, min.y, max.y),
          biochip::clamp(p.z, min.z, max.z)};
}

}  // namespace biochip
