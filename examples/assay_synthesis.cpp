// Assay synthesis: compile a PCR mixing-tree protocol onto the cell-array
// chip — schedule operations under mixer limits, place modules on the
// electrode grid, route the inter-module packet transfers collision-free,
// and report where the time actually goes. The CAD layer the paper's "Wild
// West" was missing.
//
// Run:  ./assay_synthesis

#include <iostream>

#include "cad/benchmarks.hpp"
#include "common/table.hpp"
#include "control/platform.hpp"

using namespace biochip;

int main() {
  // The protocol: 8 reagents merged down a binary tree (7 mixes) + output.
  const cad::AssayGraph assay = cad::pcr_mix(3);
  std::cout << "Assay '" << assay.name() << "': " << assay.size()
            << " operations, critical path " << assay.critical_path() << " s\n\n";

  // The machine: a 128x128 tile of the paper device, 4 concurrent mixer
  // regions, 2 I/O ports, cages dragged at 50 um/s.
  control::PlatformConfig config = control::PlatformConfig::paper_defaults();
  config.device.cols = 128;
  config.device.rows = 128;
  control::LabOnChipPlatform lab(config);
  const cad::ChipResources resources{4, 0, 2};

  const cad::SynthesisResult result = lab.run_assay(assay, resources);
  if (!result.success) {
    std::cerr << "synthesis failed:\n";
    for (const std::string& issue : result.issues) std::cerr << "  " << issue << "\n";
    return 1;
  }

  // Schedule view.
  Table sched({"op", "kind", "start [s]", "end [s]", "site"});
  for (const cad::Operation& op : assay.operations()) {
    const cad::ScheduledOp& so = result.schedule.at(op.id);
    const cad::PlacedModule& pm = result.placement.at(op.id);
    std::ostringstream site;
    site << pm.center();
    sched.row()
        .cell(op.label)
        .cell(cad::to_string(op.kind))
        .cell(so.start, 1)
        .cell(so.end, 1)
        .cell(site.str());
  }
  sched.print(std::cout);

  // Transfer episodes.
  Table eps({"departure [s]", "transfers", "route steps", "moves"});
  for (const cad::TransferEpisode& e : result.episodes)
    eps.row()
        .cell(e.depart, 1)
        .cell(static_cast<int>(e.transfers.size()))
        .cell(e.routes.makespan_steps)
        .cell(e.routes.total_moves);
  std::cout << "\n";
  eps.print(std::cout);

  std::cout << "\nTotals: processing " << result.processing_makespan
            << " s + transport " << result.transport_time << " s = "
            << result.total_time << " s  (" << result.transport_moves
            << " cage moves at " << lab.site_period() << " s/step)\n"
            << "\nNote the split: mass transport is a first-class cost on this\n"
               "chip — the scheduler view of the paper's claim C3.\n";
  return 0;
}
