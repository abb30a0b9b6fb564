// Memory interface node for the electronic mesh (paper Section V-C-2).
//
// In the transpose, every processor streams its row back to memory through
// this node. Because the mesh imposes arrival disorder, the interface must
// reassemble elements into DRAM-row-sized bursts before writing:
//
//   eject packet (1 flit/cycle)  ->  reorder (t_p cycles per element)
//                                ->  DRAM row write ((S_r + S_h)/S_b cycles)
//
// By default the three stages are serialized per packet, matching the
// behaviour the paper describes ("Reordering the data requires multiple
// cycles ... Further latency is incurred when the data is written to
// memory"). Setting `overlap_stages` pipelines reorder+write behind the next
// packet's ejection — the ablation benches quantify how much of the mesh's
// disadvantage comes from this serialization versus network congestion.
#pragma once

#include <cstdint>
#include <functional>

#include "psync/dram/dram.hpp"
#include "psync/mesh/mesh.hpp"

namespace psync::mesh {

struct MemoryInterfaceParams {
  /// Reorder cost per data element, cycles (paper's t_p; compares 1 and 4).
  std::uint32_t reorder_cycles_per_element = 1;
  /// Bits per data element (paper: 64-bit flits = one element).
  std::uint64_t element_bits = 64;
  /// DRAM the interface writes into.
  dram::DramParams dram;
  /// When true, reorder+write of packet i overlaps ejection of packet i+1.
  bool overlap_stages = false;
};

class MemoryInterface final : public Sink {
 public:
  /// Called for every data element the interface commits: (source node,
  /// element index = head-flit tag + position, payload word). Lets machine
  /// simulators reconstruct the memory image the writeback produced.
  using Collector = std::function<void(NodeId, std::uint64_t, std::uint64_t)>;

  MemoryInterface(MemoryInterfaceParams params,
                  std::uint64_t expected_elements);

  void set_collector(Collector c) { collector_ = std::move(c); }

  bool accept(const Flit& flit, std::int64_t cycle) override;
  /// A refused flit waits out the reorder/DRAM countdown, so this is the
  /// cycle the countdown ends (the mesh may skip straight there).
  std::int64_t ready_cycle(std::int64_t cycle) const override;

  /// All expected elements received, reordered and written to DRAM, seen
  /// from a mesh whose cycle() is `cycle`: true once the port's last busy
  /// cycle has been stepped.
  bool done(std::int64_t cycle) const;
  /// Cycle at which the final DRAM write completed (valid once done(...)).
  std::int64_t completion_cycle() const { return completion_cycle_; }

  std::uint64_t elements_received() const { return elements_received_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t dram_write_cycles() const { return dram_write_cycles_; }
  std::uint64_t reorder_stall_cycles() const { return reorder_stall_cycles_; }

 private:
  std::uint64_t row_write_cost(std::uint64_t rows) const;

  MemoryInterfaceParams params_;
  std::uint64_t expected_elements_;
  std::uint64_t elements_received_ = 0;
  std::uint64_t packets_received_ = 0;

  // Per-cycle ejection budget (the port accepts one flit per cycle): the
  // cycle of the last accepted flit.
  std::int64_t accepted_cycle_ = -1;
  // The interface is busy (not accepting) until this cycle; -1 before the
  // first packet, so an interface expecting nothing is done at cycle 0.
  std::int64_t busy_until_ = -1;
  // The latest cycle a flit was offered at (offers never go backwards).
  std::int64_t now_ = 0;
  std::int64_t completion_cycle_ = -1;

  // Elements of the in-progress packet (between head and tail).
  std::uint64_t packet_elements_ = 0;
  // Source and base element tag of the in-progress packet.
  NodeId packet_src_ = 0;
  std::uint64_t packet_base_ = 0;
  Collector collector_;
  // Bits accumulated toward the next DRAM row burst.
  std::uint64_t row_fill_bits_ = 0;

  std::uint64_t dram_write_cycles_ = 0;
  std::uint64_t reorder_stall_cycles_ = 0;
};

}  // namespace psync::mesh
