// Viability sorting: separate live from dead lymphocytes using their DEP
// contrast. Below the viable cell's crossover frequency, intact-membrane
// cells feel negative DEP (cageable) while permeabilized (dead) cells feel
// positive DEP (not cageable) — so traps select the live subpopulation, and
// routing them to a recovery zone completes the sort. This is the paper's
// flagship application domain (single-cell manipulation for diagnostics).
//
// Run:  ./cell_sorting

#include <iostream>
#include <map>

#include "cell/library.hpp"
#include "common/table.hpp"
#include "control/platform.hpp"
#include "physics/dielectrics.hpp"

using namespace biochip;

int main() {
  // 1. Pick the operating frequency from the dielectric spectra: below the
  //    viable crossover, above the sign flip of the dead cell.
  const physics::Medium buffer = physics::dep_buffer();
  const cell::ParticleSpec viable = cell::viable_lymphocyte();
  const cell::ParticleSpec dead = cell::nonviable_lymphocyte();
  const auto fx_viable =
      physics::crossover_frequency(viable.dielectric, viable.radius, buffer);

  std::cout << "Viable-cell crossover: "
            << (fx_viable ? si_format(*fx_viable, "Hz") : "none") << "\n";
  const double f_op = 100e3;  // comfortably below the viable crossover
  std::cout << "Operating at " << si_format(f_op, "Hz") << ": ReK(viable) = "
            << viable.re_k(buffer, f_op) << ", ReK(dead) = " << dead.re_k(buffer, f_op)
            << "\n\n";

  // 2. Load a mixed sample on a 96x96 tile of the paper device.
  control::PlatformConfig config = control::PlatformConfig::paper_defaults();
  config.device.cols = 96;
  config.device.rows = 96;
  config.device.drive_frequency = f_op;
  config.seed = 2025;
  control::LabOnChipPlatform lab(config);
  lab.load_sample({{viable, 12, 0.06}, {dead, 12, 0.06}});

  // 3. Attempt to trap every cell: only nDEP (viable) cells can be caged.
  std::map<std::string, int> trapped, total;
  std::vector<std::pair<int, std::string>> cages;  // (cage id, label)
  for (const cell::Instance& inst : lab.sample()) {
    ++total[inst.label];
    const auto cage = lab.trap_cell(inst.id);
    if (cage) {
      ++trapped[inst.label];
      cages.emplace_back(*cage, inst.label);
    }
  }

  // 4. Convey every caged cell to the recovery column on the east edge.
  //    Single-cage L-paths can be blocked by other parked cages, so sweep
  //    until no further progress (congestion resolves as cages leave).
  std::map<int, GridCoord> dest;
  int lane = 4;
  for (const auto& [cage_id, label] : cages) {
    dest[cage_id] = {92, lane};
    lane += 4;  // respect cage separation in the recovery column
  }
  int recovered = 0;
  std::map<int, bool> done;
  for (int pass = 0; pass < 4; ++pass) {
    bool progress = false;
    for (const auto& [cage_id, label] : cages) {
      if (done[cage_id]) continue;
      const control::MoveResult mv = lab.move_cell(cage_id, dest[cage_id]);
      if (mv.success) {
        done[cage_id] = true;
        ++recovered;
        progress = true;
      }
    }
    if (!progress) break;
  }

  // 5. Score the sort.
  const int viable_trapped = trapped["viable_lymphocyte"];
  const int dead_trapped = trapped["nonviable_lymphocyte"];
  const double purity =
      cages.empty() ? 0.0
                    : static_cast<double>(viable_trapped) /
                          static_cast<double>(viable_trapped + dead_trapped);
  const double recovery =
      static_cast<double>(viable_trapped) / total["viable_lymphocyte"];

  Table t({"population", "loaded", "caged", "comment"});
  t.row()
      .cell("viable_lymphocyte")
      .cell(total["viable_lymphocyte"])
      .cell(viable_trapped)
      .cell("nDEP: caged & levitated");
  t.row()
      .cell("nonviable_lymphocyte")
      .cell(total["nonviable_lymphocyte"])
      .cell(dead_trapped)
      .cell("pDEP: rejected by traps");
  t.print(std::cout);

  std::cout << "\nSort purity:   " << purity * 100.0 << " %\n"
            << "Sort recovery: " << recovery * 100.0 << " % of viable cells\n"
            << "Conveyed to recovery zone: " << recovered << "/" << cages.size()
            << " cages\n";
  return (purity > 0.9 && recovery > 0.6) ? 0 : 1;
}
