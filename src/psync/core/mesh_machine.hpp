// The electronic-mesh CMP counterpart to PsyncMachine: the same distributed
// 2D FFT flow, but with every collective carried by the cycle-level
// wormhole mesh (paper Sections V-C-2 and VI).
//
// Delivery is Model I (the paper's LLMORE runs use Model I): the memory
// node streams each processor's block serially. The transpose is the mesh's
// weak point: every processor sends its row-FFT results to a single memory
// port whose interface must reassemble DRAM rows at t_p cycles per element
// (Table III). This machine also exposes the bare transpose-writeback
// experiment used to regenerate Table III at full 1024-processor scale.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "psync/core/processor.hpp"
#include "psync/core/psync_machine.hpp"  // Phase
#include "psync/mesh/energy_orion.hpp"
#include "psync/mesh/memory_interface.hpp"
#include "psync/mesh/mesh.hpp"

namespace psync::core {

struct MeshMachineParams {
  /// Processor grid dimension (grid x grid mesh).
  std::size_t grid = 4;
  std::size_t matrix_rows = 64;
  std::size_t matrix_cols = 64;
  std::size_t sample_bits = 64;
  /// Data elements per packet (one header flit extra; paper: 32 to match a
  /// 2048-bit DRAM row).
  std::uint32_t elements_per_packet = 32;
  /// Network clock, GHz (paper's energy study: 2.5 GHz; 64-bit flits).
  double clock_ghz = 2.5;
  mesh::MeshParams net;             // width/height overwritten from `grid`
  mesh::MemoryInterfaceParams mi;   // t_p, DRAM
  ExecCostParams exec;
  /// ORION-style energy constants for the activity-based accounting.
  mesh::OrionParams orion;
  /// Node holding the single memory port (default corner 0).
  std::uint32_t memory_node = 0;
};

struct TransposeRunReport {
  std::int64_t completion_cycle = 0;
  double completion_ns = 0.0;
  std::uint64_t elements = 0;
  std::uint64_t packets = 0;
  double cycles_per_element = 0.0;
  mesh::MeshActivity activity;
  double mean_packet_latency_cycles = 0.0;
};

struct MeshRunReport {
  std::vector<Phase> phases;   // in ns, same names as the P-sync machine
  double total_ns = 0.0;
  double reorg_ns = 0.0;
  std::uint64_t flops = 0;
  double gflops = 0.0;
  double compute_efficiency = 0.0;
  double max_error_vs_reference = 0.0;

  /// Energy accounting (extension experiment): ORION network energy from
  /// the recorded router/link activity of every communication phase, plus
  /// execution-unit energy.
  double comm_energy_pj = 0.0;
  double compute_energy_pj = 0.0;
  double total_energy_pj() const { return comm_energy_pj + compute_energy_pj; }
  double pj_per_flop() const {
    return flops > 0 ? total_energy_pj() / static_cast<double>(flops) : 0.0;
  }
};

class MeshMachine {
 public:
  explicit MeshMachine(MeshMachineParams params);

  const MeshMachineParams& params() const { return params_; }

  /// Table III experiment: every one of the grid^2 processors sends
  /// `elements_per_node` words to the single memory port; the interface
  /// reorders (t_p per element) and writes DRAM rows. Returns completion
  /// time in network cycles. Pure traffic run (no FFT math).
  TransposeRunReport run_transpose_writeback(std::uint32_t elements_per_node);

  /// Multi-port variant (the paper's LLMORE configuration puts memory
  /// interfaces at the corners): each node's elements are column-
  /// partitioned across `ports` corner interfaces (1, 2 or 4); completion
  /// is when the last interface finishes. Quantifies how much memory-level
  /// parallelism buys the mesh back.
  TransposeRunReport run_transpose_writeback_multiport(
      std::uint32_t elements_per_node, std::uint32_t ports);

  /// Full functional 2D FFT flow with Model I delivery; verifies the result
  /// against fft::fft2d when `verify`. Intended for small/medium sizes.
  MeshRunReport run_fft2d(const std::vector<std::complex<double>>& input,
                          bool verify = true);

  /// Final memory image (transposed layout), valid after run_fft2d.
  std::vector<std::complex<double>> result() const;

  /// Cooperative cancellation: every network stepping loop polls `token`
  /// once per cycle batch (4096 steps) and aborts with CancelledError when
  /// it has expired (the driver's per-point watchdog). nullptr disarms.
  void set_cancel(const CancelToken* token) { cancel_ = token; }

 private:
  double cycle_ns() const { return 1.0 / params_.clock_ghz; }

  /// Steps `net` until `done()` holds, polling the cancel token every 4096
  /// steps. A phase whose cycle count passes the cap, by stepping or by a
  /// quiet-cycle jump, throws DivergenceError("<phase>: exceeded cycle cap").
  template <typename Done>
  void step_until(mesh::Mesh& net, Done done, const char* phase) const;

  MeshMachineParams params_;
  std::vector<Word> image_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace psync::core
