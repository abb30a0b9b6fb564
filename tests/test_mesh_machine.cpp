#include "psync/core/mesh_machine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/psync_machine.hpp"

namespace psync::core {
namespace {

std::vector<std::complex<double>> random_matrix(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> m(n);
  for (auto& v : m) {
    v = {rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0};
  }
  return m;
}

MeshMachineParams small_params(std::size_t grid, std::size_t rows,
                               std::size_t cols) {
  MeshMachineParams p;
  p.grid = grid;
  p.matrix_rows = rows;
  p.matrix_cols = cols;
  p.elements_per_packet = 8;
  p.mi.dram.row_switch_cycles = 0;
  return p;
}

TEST(MeshMachine, FullFlowNumericallyCorrect) {
  MeshMachine m(small_params(2, 16, 16));
  const auto rep = m.run_fft2d(random_matrix(256, 1));
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(rep.total_ns, 0.0);
  ASSERT_EQ(rep.phases.size(), 6u);
  EXPECT_EQ(rep.phases[2].name, "mesh_transpose");
}

TEST(MeshMachine, LargerGridStillCorrect) {
  MeshMachine m(small_params(4, 32, 32));
  const auto rep = m.run_fft2d(random_matrix(1024, 2));
  EXPECT_LT(rep.max_error_vs_reference, 1e-4);
}

TEST(MeshMachine, TransposeWritebackCountsAllElements) {
  MeshMachine m(small_params(4, 64, 64));
  const auto rep = m.run_transpose_writeback(64);
  EXPECT_EQ(rep.elements, 16u * 64u);
  EXPECT_EQ(rep.packets, 16u * 8u);
  EXPECT_GT(rep.completion_cycle, 0);
  // The memory port serializes: completion >= elements * stage cost / ~1.
  EXPECT_GE(rep.cycles_per_element, 1.0);
}

TEST(MeshMachine, TransposeSlowerWithHigherReorderPenalty) {
  auto p1 = small_params(4, 64, 64);
  p1.mi.reorder_cycles_per_element = 1;
  auto p4 = small_params(4, 64, 64);
  p4.mi.reorder_cycles_per_element = 4;
  MeshMachine m1(p1), m4(p4);
  const auto r1 = m1.run_transpose_writeback(64);
  const auto r4 = m4.run_transpose_writeback(64);
  EXPECT_GT(r4.completion_cycle, r1.completion_cycle);
  // t_p=4 adds ~3 extra cycles per element at the serialized interface.
  const double delta = r4.cycles_per_element - r1.cycles_per_element;
  EXPECT_NEAR(delta, 3.0, 0.5);
}

TEST(MeshMachine, StageModelMatchesSteadyState) {
  // Paper-shaped config at reduced scale: 32-element packets, t_p = 1.
  auto p = small_params(4, 64, 64);
  p.elements_per_packet = 32;
  p.mi.reorder_cycles_per_element = 1;
  MeshMachine m(p);
  const auto rep = m.run_transpose_writeback(256);
  // (33 eject + 32 reorder + 33 write) / 32 ~ 3.06 cycles/element plus
  // drain effects.
  EXPECT_GT(rep.cycles_per_element, 2.9);
  EXPECT_LT(rep.cycles_per_element, 3.7);
}

TEST(MeshMachine, MeshReorgCostsMoreThanPsyncSca) {
  // Same problem on both machines: the mesh's reorganization share must
  // exceed P-sync's (the paper's whole point).
  const auto input = random_matrix(32 * 32, 3);

  MeshMachineParams mp = small_params(4, 32, 32);
  MeshMachine mesh(mp);
  const auto mesh_rep = mesh.run_fft2d(input);

  PsyncMachineParams pp;
  pp.processors = 16;
  pp.matrix_rows = 32;
  pp.matrix_cols = 32;
  pp.head.dram.row_switch_cycles = 0;
  PsyncMachine ps(pp);
  const auto ps_rep = ps.run_fft2d(input);

  EXPECT_LT(ps_rep.max_error_vs_reference, 1e-4);
  EXPECT_LT(mesh_rep.max_error_vs_reference, 1e-4);
  EXPECT_GT(mesh_rep.reorg_ns, ps_rep.reorg_ns);
  EXPECT_LT(ps_rep.total_ns, mesh_rep.total_ns);
}

TEST(MeshMachine, InvalidConfigsRejected) {
  EXPECT_THROW(MeshMachine(small_params(3, 16, 16)), SimulationError);
  auto p = small_params(2, 16, 16);
  p.memory_node = 99;
  EXPECT_THROW(MeshMachine{p}, SimulationError);
}

TEST(MeshMachine, ResultsMatchPsyncMachineBitwiseAtFloat32) {
  // Both machines quantize through the same float32 transport; on the same
  // input their final images must agree to float32 rounding.
  const auto input = random_matrix(16 * 16, 4);
  MeshMachine mesh(small_params(2, 16, 16));
  mesh.run_fft2d(input, /*verify=*/false);

  PsyncMachineParams pp;
  pp.processors = 4;
  pp.matrix_rows = 16;
  pp.matrix_cols = 16;
  pp.head.dram.row_switch_cycles = 0;
  PsyncMachine ps(pp);
  ps.run_fft2d(input, /*verify=*/false);

  const auto a = mesh.result();
  const auto b = ps.result();
  ASSERT_EQ(a.size(), b.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_err = std::max(max_err, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_err, 1e-3);
}

// FNV-1a over the bytes of every real and imaginary part.
std::uint64_t digest(const std::vector<std::complex<double>>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& c : v) {
    for (const double x : {c.real(), c.imag()}) {
      const auto bits = std::bit_cast<std::uint64_t>(x);
      for (int k = 0; k < 64; k += 8) {
        h ^= (bits >> k) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// The whole fft2d report, pinned exactly: phase bounds, network energy,
// numerical error and the final memory image. A change to how the machine
// moves or times its data must leave every figure here as it is. The first
// run has a non-square image and the memory port off the corner, at t_p 4.
TEST(MeshMachine, Fft2dReportIsPinned) {
  struct Expected {
    std::size_t grid, rows, cols;
    std::uint32_t memory_node, t_p;
    std::uint64_t seed;
    double bounds[6][2];
    double comm_energy_pj;
    double max_error;
    std::uint64_t result_digest;
  };
  const Expected runs[] = {
      {4, 64, 128, 5, 4, 11,
       {{0, 4917.2000000000007},
        {308.40000000000003, 19253.200000000001},
        {14644.4, 34819.599999999999},
        {34819.599999999999, 39736.800000000003},
        {35128, 52024.800000000003},
        {47416, 67591.199999999997}},
       4674478.0800000001, 5.5243981211069783e-08, 0x791b62f5220ad839ULL},
      {8, 128, 128, 0, 1, 12,
       {{0, 11222.800000000001},
        {128.40000000000001, 18390.800000000003},
        {7296.3999999999996, 27982},
        {27982, 39204.800000000003},
        {28110.400000000001, 46372.800000000003},
        {35278.400000000001, 55964}},
       17793679.359999999, 4.8304678980134419e-08, 0xd0a9fbdcfc31eeafULL},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE("grid " + std::to_string(run.grid));
    auto p = small_params(run.grid, run.rows, run.cols);
    p.memory_node = run.memory_node;
    p.mi.reorder_cycles_per_element = run.t_p;
    MeshMachine m(p);
    const auto rep = m.run_fft2d(random_matrix(run.rows * run.cols, run.seed));
    ASSERT_EQ(rep.phases.size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      SCOPED_TRACE(rep.phases[k].name);
      EXPECT_EQ(rep.phases[k].start_ns, run.bounds[k][0]);
      EXPECT_EQ(rep.phases[k].end_ns, run.bounds[k][1]);
    }
    EXPECT_EQ(rep.total_ns, run.bounds[5][1]);
    EXPECT_EQ(rep.comm_energy_pj, run.comm_energy_pj);
    EXPECT_EQ(rep.max_error_vs_reference, run.max_error);
    EXPECT_EQ(digest(m.result()), run.result_digest);
    // Both deliveries carry R*C/P words per processor: the same traffic,
    // so the same duration in network cycles.
    const auto cycles = [&](const Phase& ph) {
      return std::llround(ph.duration_ns() * p.clock_ghz);
    };
    EXPECT_EQ(cycles(rep.phases[0]), cycles(rep.phases[3]));
  }
}

}  // namespace
}  // namespace psync::core
