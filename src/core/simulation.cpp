#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biochip::core {

CageFieldModel::CageFieldModel(const field::HarmonicCage& unit, double pitch,
                               double capture_radius)
    : unit_(unit), pitch_(pitch), capture_radius_(capture_radius) {
  BIOCHIP_REQUIRE(pitch > 0.0, "pitch must be positive");
  BIOCHIP_REQUIRE(capture_radius > 0.0, "capture radius must be positive");
  rebuild_index();
}

Vec3 CageFieldModel::trap_center(GridCoord site) const {
  // The calibrated unit cage sits over the center electrode of its patch;
  // translate its z (and intra-pitch xy offset) onto the requested site.
  const double cx = (static_cast<double>(site.col) + 0.5) * pitch_;
  const double cy = (static_cast<double>(site.row) + 0.5) * pitch_;
  return {cx, cy, unit_.center.z};
}

namespace {

inline std::uint64_t pack_site(GridCoord site) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(site.col)) << 32) |
         static_cast<std::uint32_t>(site.row);
}

// splitmix64 finalizer: spreads the packed (col,row) key over the table.
inline std::uint64_t hash_site(std::uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}

// Shared nearest-trap ordering for the hashed box scan and the linear-scan
// oracle: nearer wins, and an EXACT distance tie goes to the smaller
// (row, col). The two paths visit candidates in different orders (row-major
// box vs insertion order), so without an explicit tie rule a body exactly
// equidistant between two trap centers — the midpoint of every tow hop —
// could receive different drives on the two paths.
inline bool closer_site(double d2, GridCoord site, double best_d2, GridCoord best) {
  if (d2 != best_d2) return d2 < best_d2;
  if (site.row != best.row) return site.row < best.row;
  return site.col < best.col;
}

}  // namespace

void CageFieldModel::set_sites(std::vector<GridCoord> sites) {
  sites_ = std::move(sites);
  rebuild_index();
}

void CageFieldModel::rebuild_index() {
  std::size_t capacity = 16;
  while (capacity < 2 * sites_.size()) capacity *= 2;
  slot_key_.assign(capacity, 0);
  slot_used_.assign(capacity, 0);
  slot_mask_ = capacity - 1;
  for (const GridCoord site : sites_) insert_key(pack_site(site));
}

void CageFieldModel::insert_key(std::uint64_t key) {
  std::size_t slot = hash_site(key) & slot_mask_;
  while (slot_used_[slot]) {
    if (slot_key_[slot] == key) return;  // duplicate site
    slot = (slot + 1) & slot_mask_;
  }
  slot_used_[slot] = 1;
  slot_key_[slot] = key;
}

bool CageFieldModel::site_active(GridCoord site) const {
  const std::uint64_t key = pack_site(site);
  std::size_t slot = hash_site(key) & slot_mask_;
  while (slot_used_[slot]) {
    if (slot_key_[slot] == key) return true;
    slot = (slot + 1) & slot_mask_;
  }
  return false;
}

Vec3 CageFieldModel::drive_from(Vec3 center, Vec3 p) const {
  return unit_.moved_to(center).grad_erms2(p);
}

template <typename Visit>
void CageFieldModel::for_each_site_near(const Aabb& box, Visit&& visit) const {
  // Candidate sites: those whose center (site + 0.5)·pitch lies within the
  // capture radius of the box on each axis — for a point query, a
  // constant-size box independent of the active cage count. The range is
  // widened by a rounding slack, so a site whose center lies at exactly the
  // capture radius (which grad_erms2 counts as in range) is never dropped by
  // the rounded division; the callers test every candidate exactly.
  constexpr double kSlack = 1e-9;  // site units
  const double lo_c = (box.min.x - capture_radius_) / pitch_ - 0.5 - kSlack;
  const double hi_c = (box.max.x + capture_radius_) / pitch_ - 0.5 + kSlack;
  const double lo_r = (box.min.y - capture_radius_) / pitch_ - 0.5 - kSlack;
  const double hi_r = (box.max.y + capture_radius_) / pitch_ - 0.5 + kSlack;
  // Queries so far out (or radii so large) that site indices leave the int
  // range cannot use the rounding trick; the scan handles them correctly.
  const double coord_limit = 2147483000.0;
  if (std::fabs(lo_c) < coord_limit && std::fabs(hi_c) < coord_limit &&
      std::fabs(lo_r) < coord_limit && std::fabs(hi_r) < coord_limit) {
    const auto cmin = static_cast<std::int64_t>(std::ceil(lo_c));
    const auto cmax = static_cast<std::int64_t>(std::floor(hi_c));
    const auto rmin = static_cast<std::int64_t>(std::ceil(lo_r));
    const auto rmax = static_cast<std::int64_t>(std::floor(hi_r));
    if (cmax < cmin || rmax < rmin) return;
    // Degenerate configuration (capture radius spanning more candidate
    // sites than there are live cages): the scan is the cheaper probe.
    const std::uint64_t box_cells = static_cast<std::uint64_t>(cmax - cmin + 1) *
                                    static_cast<std::uint64_t>(rmax - rmin + 1);
    if (box_cells <= sites_.size()) {
      for (std::int64_t r = rmin; r <= rmax; ++r)
        for (std::int64_t c = cmin; c <= cmax; ++c) {
          const GridCoord site{static_cast<int>(c), static_cast<int>(r)};
          if (site_active(site)) visit(site);
        }
      return;
    }
  }
  for (const GridCoord site : sites_) visit(site);
}

Vec3 CageFieldModel::grad_erms2(Vec3 p) const {
  // Nearest active trap wins; beyond the capture radius the background field
  // is laterally uniform and exerts no DEP drive.
  if (sites_.empty()) return {};
  const double cap2 = capture_radius_ * capture_radius_;
  const double dz = p.z - unit_.center.z;  // all traps share the cage height
  if (dz * dz > cap2) return {};

  double best_d2 = cap2;
  bool found = false;
  GridCoord best_site;
  Vec3 best_center;
  for_each_site_near({p, p}, [&](GridCoord site) {
    const Vec3 center = trap_center(site);
    const double d2 = (p - center).norm2();
    if (d2 > best_d2) return;
    if (found && !closer_site(d2, site, best_d2, best_site)) return;
    best_d2 = d2;
    best_site = site;
    best_center = center;
    found = true;
  });
  return found ? drive_from(best_center, p) : Vec3{};
}

Vec3 CageFieldModel::grad_erms2_linear(Vec3 p) const {
  double best_d2 = capture_radius_ * capture_radius_;
  bool found = false;
  GridCoord best_site;
  Vec3 best_center;
  for (const GridCoord site : sites_) {
    const Vec3 center = trap_center(site);
    const double d2 = (p - center).norm2();
    if (d2 > best_d2) continue;
    if (found && !closer_site(d2, site, best_d2, best_site)) continue;
    best_d2 = d2;
    best_site = site;
    best_center = center;
    found = true;
  }
  return found ? drive_from(best_center, p) : Vec3{};
}

std::optional<field::HarmonicCage> CageFieldModel::harmonic_basin(const Aabb& box) const {
  // The only candidate is the trap nearest the box center: a trap that
  // governs the whole box governs its center.
  const Vec3 mid = box.center();
  bool found = false;
  GridCoord best;
  double best_d2 = 0.0;
  for_each_site_near(box, [&](GridCoord site) {
    const double d2 = (mid - trap_center(site)).norm2();
    if (found && !closer_site(d2, site, best_d2, best)) return;
    best_d2 = d2;
    best = site;
    found = true;
  });
  if (!found) return std::nullopt;
  const Vec3 t = trap_center(best);

  // Inside the capture radius everywhere: test the box corner farthest
  // from the trap (the same norm2 grad_erms2 compares, so this is exact).
  const Vec3 far{std::max(std::fabs(box.min.x - t.x), std::fabs(box.max.x - t.x)),
                 std::max(std::fabs(box.min.y - t.y), std::fabs(box.max.y - t.y)),
                 std::max(std::fabs(box.min.z - t.z), std::fabs(box.max.z - t.z))};
  if (!(far.norm2() < capture_radius_ * capture_radius_)) return std::nullopt;

  // Strictly nearer than every rival u everywhere: the points nearer t
  // than u form a half-space, so only the box corner farthest along u - t
  // needs the test. It compares the same norm2 grad_erms2 does, so an exact
  // tie there is rejected.
  bool sole = true;
  for_each_site_near(box, [&](GridCoord site) {
    if (!sole || site == best) return;
    const Vec3 u = trap_center(site);
    const Vec3 q{u.x > t.x ? box.max.x : box.min.x, u.y > t.y ? box.max.y : box.min.y,
                 u.z > t.z ? box.max.z : box.min.z};
    sole = (q - t).norm2() < (q - u).norm2();
  });
  if (!sole) return std::nullopt;
  return unit_.moved_to(t);
}

bool CageFieldModel::drive_free(const Aabb& box) const {
  // The point of the box nearest a trap center is the center clamped into
  // the box; every other point's distance is at least as large in floating
  // point too (rounded subtraction, squaring and summing are monotone), so
  // one strict test per trap covers the whole box.
  const double cap2 = capture_radius_ * capture_radius_;
  bool free = true;
  for_each_site_near(box, [&](GridCoord site) {
    if (!free) return;
    const Vec3 center = trap_center(site);
    free = (box.clamp(center) - center).norm2() > cap2;
  });
  return free;
}

ManipulationEngine::ManipulationEngine(const chip::BiochipDevice& device,
                                       const physics::Medium& medium,
                                       const field::HarmonicCage& unit_cage,
                                       double capture_radius)
    : field_(unit_cage, device.array().pitch(), capture_radius),
      integrator_(medium,
                  physics::DynamicsOptions{
                      .dt = 1e-3,
                      .brownian = true,
                      .gravity = true,
                      .wall_correction = true,
                      .bounds = device.chamber_bounds(),
                  }) {}

TowReport ManipulationEngine::tow(physics::ParticleBody& particle,
                                  const std::vector<GridCoord>& path, double site_period,
                                  Rng& rng) {
  BIOCHIP_REQUIRE(!path.empty(), "tow path must be non-empty");
  BIOCHIP_REQUIRE(site_period > 0.0, "site period must be positive");
  for (std::size_t i = 1; i < path.size(); ++i)
    BIOCHIP_REQUIRE(manhattan(path[i], path[i - 1]) <= 1,
                    "tow path must step between adjacent sites");

  TowReport report;
  const double dt = integrator_.options().dt;
  const auto substeps =
      static_cast<std::size_t>(std::max(1.0, std::round(site_period / dt)));

  // The towed cage is prepended to the active set and updated per hop.
  std::vector<GridCoord> sites = field_.sites();
  sites.insert(sites.begin(), path.front());

  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    sites.front() = path[hop];
    field_.set_sites(sites);
    const Vec3 trap = field_.trap_center(path[hop]);
    // Stepped here rather than through `advance`: max_lag samples the lag
    // after every step, not once per period.
    for (std::size_t s = 0; s < substeps; ++s) {
      integrator_.step(particle, [this](Vec3 p) { return field_.grad_erms2(p); }, rng);
      const double lag = (particle.position - trap).norm();
      report.max_lag = std::max(report.max_lag, lag);
    }
    report.elapsed += site_period;
    ++report.steps;
    if ((particle.position - trap).norm() > field_.capture_radius()) {
      report.retained = false;
      break;
    }
  }
  // Restore the caller's static cage set.
  sites.erase(sites.begin());
  field_.set_sites(sites);
  report.final_position = particle.position;
  return report;
}

void ManipulationEngine::settle(physics::ParticleBody& particle, double duration, Rng& rng) {
  BIOCHIP_REQUIRE(duration >= 0.0, "duration must be non-negative");
  const double dt = integrator_.options().dt;
  const auto steps = static_cast<std::size_t>(std::round(duration / dt));
  integrator_.advance(particle, field_, rng, steps);
}

}  // namespace biochip::core
