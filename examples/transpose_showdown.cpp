// The paper's Table III experiment at any scale you like: distributed
// matrix transpose writeback, PSCAN vs cycle-level wormhole mesh.
//
//   $ ./transpose_showdown [grid=16] [elements_per_node=256] [t_p=1]
//
// grid*grid processors each write `elements_per_node` 64-bit words back to
// one memory port; the PSCAN reorganizes in flight at full waveguide
// utilization while the mesh pays ejection serialization, reorder time and
// DRAM row assembly at the port.
#include <cstdio>
#include <cstdlib>

#include "psync/analysis/transpose_model.hpp"
#include "psync/common/table.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/sca.hpp"
#include "psync/dram/controller.hpp"

int main(int argc, char** argv) {
  using namespace psync;
  const std::size_t grid = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 16;
  const std::uint32_t elements =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 256;
  const std::uint32_t t_p =
      argc > 3 ? static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 10))
               : 1;
  const std::size_t procs = grid * grid;

  std::printf("Transpose writeback: %zu processors x %u samples, t_p=%u\n\n",
              procs, elements, t_p);

  // ---- PSCAN: slot-exact engine + DRAM streaming ----
  core::ScaEngine engine(core::straight_bus_topology(procs, 8.0));
  const auto sched = core::compile_gather_transpose(
      procs, 1, static_cast<core::Slot>(elements));
  std::vector<std::vector<core::Word>> data(
      procs, std::vector<core::Word>(elements, 0x1234));
  const auto g = engine.gather(sched, data);

  dram::DramParams dp;
  dp.row_switch_cycles = 0;
  dram::MemoryController mc(dp);
  const auto total_bits = static_cast<std::uint64_t>(procs) * elements * 64;
  const auto pscan =
      mc.stream_rows(0, dram::row_transactions(dp, total_bits));

  // ---- Mesh: full cycle-level run ----
  core::MeshMachineParams mp;
  mp.grid = grid;
  mp.matrix_rows = procs;
  mp.matrix_cols = elements;
  mp.elements_per_packet = 32;
  mp.mi.reorder_cycles_per_element = t_p;
  mp.mi.dram.row_switch_cycles = 0;
  core::MeshMachine mesh(mp);
  const auto rep = mesh.run_transpose_writeback(elements);

  Table t({"network", "completion (cycles)", "cycles/element", "vs PSCAN"});
  t.row()
      .add("PSCAN (SCA)")
      .add(static_cast<std::int64_t>(pscan.bus_cycles))
      .add(static_cast<double>(pscan.bus_cycles) /
               static_cast<double>(procs * elements),
           2)
      .add(1.0, 2);
  t.row()
      .add("wormhole mesh")
      .add(static_cast<std::int64_t>(rep.completion_cycle))
      .add(rep.cycles_per_element, 2)
      .add(static_cast<double>(rep.completion_cycle) /
               static_cast<double>(pscan.bus_cycles),
           2);
  std::printf("%s\n", t.to_string().c_str());

  std::printf("PSCAN stream: gap_free=%s, utilization=%.1f%%, %zu collisions\n",
              g.gap_free ? "yes" : "NO", g.utilization * 100.0,
              g.collisions.size());
  std::printf("Mesh activity: %llu flit-hops, mean packet latency %.0f "
              "cycles\n",
              static_cast<unsigned long long>(rep.activity.link_traversals),
              rep.mean_packet_latency_cycles);

  // Packet-latency distribution (re-run with per-packet tracking): the
  // long tail is the congestion the paper's Section V-C-2 describes.
  {
    mesh::MeshParams np = mp.net;
    np.width = np.height = static_cast<std::uint32_t>(grid);
    mesh::Mesh net(np);
    net.record_latencies(true);
    mesh::MemoryInterface mi(mp.mi,
                             static_cast<std::uint64_t>(procs) * elements);
    net.set_sink(mp.memory_node, &mi);
    for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
      for (std::uint32_t e = 0; e < elements; e += mp.elements_per_packet) {
        mesh::PacketDesc d;
        d.src = n;
        d.dst = mp.memory_node;
        d.payload_flits = mp.elements_per_packet;
        net.inject(d);
      }
    }
    while (!mi.done(net.cycle())) net.step();
    const auto& lat = net.packet_latency();
    std::printf("\nMesh packet latency: min %.0f / mean %.0f / max %.0f "
                "cycles (stddev %.0f) over %llu packets\n",
                lat.min(), lat.mean(), lat.max(), lat.stddev(),
                static_cast<unsigned long long>(lat.count()));
    Histogram h(lat.min(), lat.max() + 1.0, 10);
    for (double v : net.latencies()) h.add(v);
    std::printf("%s", h.to_string(40).c_str());
  }
  return 0;
}
