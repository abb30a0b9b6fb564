// Extension experiment (ours): end-to-end energy of the full 2D FFT flow on
// both machine simulators, carrying the paper's Fig. 5 per-bit transport
// models through a complete application. The paper's conclusion claims
// "large gains in performance and energy efficiency"; this bench quantifies
// the energy half on the same runs that produce the performance numbers.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "psync/common/rng.hpp"
#include "psync/common/table.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/psync_machine.hpp"

namespace {

int run() {
  using namespace psync;
  bench::ShapeChecks checks;

  Rng rng(11);
  const std::size_t dim = 64;
  std::vector<std::complex<double>> input(dim * dim);
  for (auto& v : input) {
    v = {rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0};
  }

  Table t({"machine", "time (us)", "comm E (nJ)", "compute E (nJ)",
           "total E (nJ)", "pJ/flop"});
  t.set_title(
      "End-to-end 2D FFT (64x64, 16 processors): time and energy\n"
      "(comm = transport energy of every word moved; compute = FPU energy)");

  core::PsyncMachineParams pp;
  pp.processors = 16;
  pp.matrix_rows = dim;
  pp.matrix_cols = dim;
  pp.delivery_blocks = 4;
  pp.head.dram.row_switch_cycles = 0;
  core::PsyncMachine psm(pp);
  const auto pr = psm.run_fft2d(input, false);
  t.row()
      .add("P-sync (PSCAN)")
      .add(pr.total_ns * 1e-3, 2)
      .add(pr.comm_energy_pj * 1e-3, 2)
      .add(pr.compute_energy_pj * 1e-3, 2)
      .add(pr.total_energy_pj() * 1e-3, 2)
      .add(pr.pj_per_flop(), 2);

  core::MeshMachineParams mp;
  mp.grid = 4;
  mp.matrix_rows = dim;
  mp.matrix_cols = dim;
  mp.elements_per_packet = 32;
  mp.mi.dram.row_switch_cycles = 0;
  core::MeshMachine msm(mp);
  const auto mr = msm.run_fft2d(input, false);
  t.row()
      .add("electronic mesh")
      .add(mr.total_ns * 1e-3, 2)
      .add(mr.comm_energy_pj * 1e-3, 2)
      .add(mr.compute_energy_pj * 1e-3, 2)
      .add(mr.total_energy_pj() * 1e-3, 2)
      .add(mr.pj_per_flop(), 2);

  std::printf("%s\n", t.to_string().c_str());
  std::printf("Transport energy ratio (mesh / P-sync): %.2fx\n",
              mr.comm_energy_pj / pr.comm_energy_pj);
  std::printf("End-to-end energy ratio: %.2fx\n\n",
              mr.total_energy_pj() / pr.total_energy_pj());

  checks.expect(mr.comm_energy_pj > 2.0 * pr.comm_energy_pj,
                "mesh transport energy >2x P-sync on the same workload");
  // The printed ratio itself, pinned: the >2x shape check above would let
  // the mesh lose a quarter of its ORION activity (one of the two Model I
  // deliveries uncounted) without a word. 10.81x is this run's value.
  const double transport_ratio = mr.comm_energy_pj / pr.comm_energy_pj;
  checks.expect(std::abs(transport_ratio / 10.81 - 1.0) < 0.03,
                "transport energy ratio within 3% of 10.81x");
  checks.expect(mr.total_energy_pj() > pr.total_energy_pj(),
                "P-sync wins end-to-end energy too");
  checks.expect(pr.total_ns < mr.total_ns, "and end-to-end time");
  return checks.finish("bench_energy_fft2d");
}

}  // namespace

int main() { return run(); }
