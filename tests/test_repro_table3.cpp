// Reproduction gate for paper Table III at full scale (the set-up of
// bench/bench_table3_transpose.cpp). PSCAN column: the SCA gather-transpose
// of 1024 nodes x 1024 words, landed in DRAM rows. Mesh column: a 32x32
// wormhole mesh whose 1024 nodes each write 1024 elements back through the
// single memory port, at t_p = 1 and t_p = 4. The results are pinned
// exactly: a datapath change that moves them changed the simulated
// machine, not just its speed. The mesh cells are also tied to the
// analytic stage model (analysis::mesh_writeback_cycles_estimate), which
// they exceed by exactly two cycles, so a change to the eject or port
// pipeline shows up as a change against the model too. Registered in
// ctest under the `repro` label.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "psync/analysis/transpose_model.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/sca.hpp"
#include "psync/dram/controller.hpp"

namespace psync::core {
namespace {

TEST(ReproTable3, FullScalePscanGatherIsPinned) {
  constexpr std::size_t kNodes = 1024;
  constexpr std::size_t kWords = 1024;
  const ScaEngine engine(straight_bus_topology(kNodes, 8.0));
  const auto sched =
      compile_gather_transpose(kNodes, 1, static_cast<Slot>(kWords));
  // Node i holds row i; word c of it is tagged (i, c).
  std::vector<std::vector<Word>> data(kNodes, std::vector<Word>(kWords));
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t c = 0; c < kWords; ++c) data[i][c] = (i << 32) | c;
  }
  const GatherResult g = engine.gather(sched, data);
  EXPECT_TRUE(g.gap_free);
  EXPECT_TRUE(g.collisions.empty());
  EXPECT_EQ(g.utilization, 1.0);
  // The terminus stream is the matrix in column-major order.
  const std::vector<Word> words = g.words();
  ASSERT_EQ(words.size(), kNodes * kWords);
  std::size_t misplaced = 0;
  for (std::size_t c = 0; c < kWords; ++c) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      misplaced += words[c * kNodes + i] != data[i][c];
    }
  }
  EXPECT_EQ(misplaced, 0u);

  dram::DramParams dp;  // paper DRAM: 2048-bit rows, 64-bit bus + header
  dp.row_switch_cycles = 0;
  dram::MemoryController mc(dp);
  const std::uint64_t bits = words.size() * 64;
  EXPECT_EQ(mc.stream_rows(0, dram::row_transactions(dp, bits)).bus_cycles,
            1'081'344u);
}

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
    // The port-bound stage model plus two cycles: the port takes its first
    // header two cycles in, and the network never starves it after that.
    EXPECT_EQ(static_cast<std::uint64_t>(rep.completion_cycle),
              analysis::mesh_writeback_cycles_estimate(
                  analysis::TransposeParams{}, cell.t_p) +
                  2)
        << "t_p = " << cell.t_p;
    EXPECT_EQ(rep.elements, kGrid * kGrid * kElements);
  }
}

}  // namespace
}  // namespace psync::core
