// Reproduction gate for the mesh column of paper Table III at full scale:
// a 32x32 wormhole mesh whose 1024 nodes each write 1024 elements back
// through the single memory port, at t_p = 1 and t_p = 4 (the set-up of
// bench/bench_table3_transpose.cpp). The cycle counts are pinned exactly:
// a stepping change that moves them changed the simulated machine, not
// just its speed. Registered in ctest under the `repro` label.
#include <gtest/gtest.h>

#include <cstdint>

#include "psync/core/mesh_machine.hpp"

namespace psync::core {
namespace {

TEST(ReproTable3, FullScaleMeshCellsArePinned) {
  constexpr std::size_t kGrid = 32;
  constexpr std::uint32_t kElements = 1024;
  const struct {
    std::uint32_t t_p;
    std::int64_t cycles;
  } cells[] = {{1, 3'211'266}, {4, 6'356'994}};
  for (const auto& cell : cells) {
    MeshMachineParams mp;
    mp.grid = kGrid;
    mp.matrix_rows = kGrid * kGrid;
    mp.matrix_cols = kElements;
    mp.elements_per_packet = 32;  // one DRAM row per packet
    mp.mi.reorder_cycles_per_element = cell.t_p;
    mp.mi.dram.row_switch_cycles = 0;
    const auto rep = MeshMachine(mp).run_transpose_writeback(kElements);
    EXPECT_EQ(rep.completion_cycle, cell.cycles) << "t_p = " << cell.t_p;
    EXPECT_EQ(rep.elements, kGrid * kGrid * kElements);
  }
}

}  // namespace
}  // namespace psync::core
