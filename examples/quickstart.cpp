// Quickstart: build the paper's device, load a few cells, image them, trap
// one in a DEP cage, and drag it across the array — the complete single-cell
// manipulation loop of Manaresi et al. (DATE 2005) in ~60 lines of API.
//
// Run:  ./quickstart

#include <iostream>

#include "cell/library.hpp"
#include "common/table.hpp"
#include "control/platform.hpp"

using namespace biochip;

int main() {
  // 1. The platform: paper-scale chip (0.35 µm CMOS, 20 µm pitch, 100 µm
  //    chamber) — shrunk to a 64x64 tile so the demo runs instantly.
  control::PlatformConfig config = control::PlatformConfig::paper_defaults();
  config.device.cols = 64;
  config.device.rows = 64;
  config.seed = 7;
  control::LabOnChipPlatform lab(config);

  std::cout << "Device: " << lab.device().array().electrode_count()
            << " electrodes, " << lab.device().chamber_volume() * 1e9
            << " ul chamber, cage levitates at "
            << lab.unit_cage().center.z * 1e6 << " um\n";

  // 2. Pipette a sample: five viable lymphocytes, sedimented on the chip.
  lab.load_sample({{cell::viable_lymphocyte(), 5, 0.05}});

  // 3. Image the chamber with 64-frame averaging and detect the cells.
  const auto detections = lab.detect_cells(64);
  std::cout << "Detected " << detections.size() << " cells in "
            << lab.acquisition_time(64) * 1e3 << " ms of sensor time\n";
  for (const auto& d : detections)
    std::cout << "  cell at (" << d.position.x * 1e6 << ", " << d.position.y * 1e6
              << ") um, |dC| = " << d.score * 1e18 << " aF\n";

  // 4. Trap cell #0 in a DEP cage.
  const auto cage = lab.trap_cell(0);
  if (!cage) {
    std::cerr << "trap failed (pDEP particle or occupied site)\n";
    return 1;
  }
  const GridCoord from = lab.cages().site(*cage);
  std::cout << "Cell 0 caged at " << from << "\n";

  // 5. Drag it 12 pitches away at 50 um/s, physics-in-the-loop.
  const GridCoord to{from.col < 32 ? from.col + 12 : from.col - 12, from.row};
  const control::MoveResult mv = lab.move_cell(*cage, to);

  Table report({"metric", "value"});
  report.row().cell("move succeeded").cell(mv.success ? "yes" : "no");
  report.row().cell("cage steps").cell(static_cast<int>(mv.tow.steps));
  report.row().cell("manipulation time [s]").cell(mv.tow.elapsed, 2);
  report.row().cell("worst trap lag [um]").cell(mv.tow.max_lag * 1e6, 2);
  report.row().cell("electronics time [us]").cell(mv.electronics_time * 1e6, 2);
  report.row().cell("headroom (motion/electronics)").cell(
      mv.tow.elapsed / mv.electronics_time, 0);
  report.print(std::cout);

  std::cout << "\nThe paper's point C3, live: the cage crawled for "
            << mv.tow.elapsed << " s while the chip spent "
            << mv.electronics_time * 1e6 << " us reprogramming itself.\n";
  return mv.success ? 0 : 1;
}
