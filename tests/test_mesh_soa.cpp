// Differential equivalence of the SoA mesh datapath against the retained
// AoS reference (reference_mesh.hpp): identical traffic is run through both
// implementations and every observable — the per-flit ejection trace with
// its cycle stamps, the final activity counters, the Welford latency
// moments bit for bit, and the per-packet latency log — must match exactly.
// Patterns cover uniform random, transpose permutation, and hotspot traffic
// on 8x8 and 16x16 meshes, across seeds, both routing algorithms, and both
// the packed (V=1) and generic (V=2) VC layouts. The MeshSoaMachine cases
// repeat the comparison one level up, on whole MeshMachine runs whose
// memory-port countdowns drive the SoA path's quiet-cycle fast-forward.
#include "psync/mesh/mesh.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/core/mesh_machine.hpp"

namespace psync::mesh {
namespace {

enum class Pattern { kUniform, kTranspose, kHotspot };

std::vector<PacketDesc> make_traffic(Pattern pattern, std::uint32_t dim,
                                     std::uint64_t seed, int packets) {
  const std::uint32_t nodes = dim * dim;
  std::vector<PacketDesc> out;
  out.reserve(static_cast<std::size_t>(packets));
  Rng rng(seed);
  for (int i = 0; i < packets; ++i) {
    PacketDesc d;
    d.src = static_cast<NodeId>(rng.next_u64() % nodes);
    switch (pattern) {
      case Pattern::kUniform:
        d.dst = static_cast<NodeId>(rng.next_u64() % nodes);
        break;
      case Pattern::kTranspose: {
        // dst = transpose of src's coordinates.
        const std::uint32_t x = d.src % dim;
        const std::uint32_t y = d.src / dim;
        d.dst = x * dim + y;
        break;
      }
      case Pattern::kHotspot:
        d.dst = (i & 1) != 0
                    ? (dim / 2) * dim + dim / 2
                    : static_cast<NodeId>(rng.next_u64() % nodes);
        break;
    }
    d.payload_flits = 1 + static_cast<std::uint32_t>(rng.next_u64() % 12);
    d.payload_base = rng.next_u64();
    d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 4000);
    out.push_back(d);
  }
  return out;
}

struct RunResult {
  std::int64_t final_cycle = 0;
  MeshActivity activity;
  // Welford moments, bit-cast so "identical" means identical float bits.
  std::uint64_t lat_count = 0;
  std::uint64_t lat_mean_bits = 0;
  std::uint64_t lat_m2_bits = 0;
  std::uint64_t lat_min_bits = 0;
  std::uint64_t lat_max_bits = 0;
  std::vector<double> latencies;
  // Ejection trace: every flit at every node, with its arrival cycle.
  std::vector<Flit> flits;
  std::vector<std::int64_t> flit_cycles;
};

RunResult run_one(bool reference, Pattern pattern, std::uint32_t dim,
                  std::uint64_t seed, MeshParams mp) {
  set_reference_datapath(reference);
  mp.width = dim;
  mp.height = dim;
  Mesh net(mp);
  set_reference_datapath(false);
  EXPECT_EQ(net.using_reference_datapath(), reference);

  std::vector<ConsumeSink> sinks(net.nodes());
  for (NodeId n = 0; n < net.nodes(); ++n) {
    sinks[n].keep_log(true);
    net.set_sink(n, &sinks[n]);
  }
  net.record_latencies(true);

  const int packets = dim == 8 ? 600 : 1200;
  for (const auto& d : make_traffic(pattern, dim, seed, packets)) {
    net.inject(d);
  }
  EXPECT_TRUE(net.run_until_drained(10'000'000));
  EXPECT_EQ(net.in_flight_flits(), 0u);
  EXPECT_EQ(net.in_flight_packets(), 0u);

  RunResult r;
  r.final_cycle = net.cycle();
  r.activity = net.activity();
  const auto& stats = net.packet_latency();
  r.lat_count = stats.count();
  r.lat_mean_bits = std::bit_cast<std::uint64_t>(stats.mean());
  r.lat_m2_bits = std::bit_cast<std::uint64_t>(stats.variance());
  r.lat_min_bits = std::bit_cast<std::uint64_t>(stats.min());
  r.lat_max_bits = std::bit_cast<std::uint64_t>(stats.max());
  r.latencies = net.latencies();
  for (const auto& s : sinks) {
    r.flits.insert(r.flits.end(), s.log().begin(), s.log().end());
    r.flit_cycles.insert(r.flit_cycles.end(), s.log_cycles().begin(),
                         s.log_cycles().end());
  }
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_cycle, b.final_cycle);

  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
  EXPECT_EQ(a.activity.buffer_reads, b.activity.buffer_reads);
  EXPECT_EQ(a.activity.crossbar_traversals, b.activity.crossbar_traversals);
  EXPECT_EQ(a.activity.link_traversals, b.activity.link_traversals);
  EXPECT_EQ(a.activity.arbitrations, b.activity.arbitrations);
  EXPECT_EQ(a.activity.injected_flits, b.activity.injected_flits);
  EXPECT_EQ(a.activity.ejected_flits, b.activity.ejected_flits);
  EXPECT_EQ(a.activity.injected_packets, b.activity.injected_packets);
  EXPECT_EQ(a.activity.ejected_packets, b.activity.ejected_packets);

  EXPECT_EQ(a.lat_count, b.lat_count);
  EXPECT_EQ(a.lat_mean_bits, b.lat_mean_bits);
  EXPECT_EQ(a.lat_m2_bits, b.lat_m2_bits);
  EXPECT_EQ(a.lat_min_bits, b.lat_min_bits);
  EXPECT_EQ(a.lat_max_bits, b.lat_max_bits);

  ASSERT_EQ(a.latencies.size(), b.latencies.size());
  for (std::size_t i = 0; i < a.latencies.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.latencies[i]),
              std::bit_cast<std::uint64_t>(b.latencies[i]))
        << "latency " << i;
  }

  ASSERT_EQ(a.flits.size(), b.flits.size());
  ASSERT_EQ(a.flit_cycles.size(), b.flit_cycles.size());
  for (std::size_t i = 0; i < a.flits.size(); ++i) {
    const Flit& fa = a.flits[i];
    const Flit& fb = b.flits[i];
    ASSERT_EQ(fa.packet, fb.packet) << "flit " << i;
    ASSERT_EQ(fa.src, fb.src) << "flit " << i;
    ASSERT_EQ(fa.dst, fb.dst) << "flit " << i;
    ASSERT_EQ(fa.seq, fb.seq) << "flit " << i;
    ASSERT_EQ(fa.kind, fb.kind) << "flit " << i;
    ASSERT_EQ(fa.payload, fb.payload) << "flit " << i;
    ASSERT_EQ(a.flit_cycles[i], b.flit_cycles[i]) << "flit " << i;
  }
}

struct Config {
  Pattern pattern;
  std::uint32_t dim;
  MeshParams mp;
  const char* name;
};

class MeshSoaIdentity : public ::testing::TestWithParam<Config> {};

TEST_P(MeshSoaIdentity, MatchesReferenceAcrossSeeds) {
  const Config& cfg = GetParam();
  for (std::uint64_t seed : {11ull, 212ull, 3333ull}) {
    const RunResult ref = run_one(true, cfg.pattern, cfg.dim, seed, cfg.mp);
    const RunResult soa = run_one(false, cfg.pattern, cfg.dim, seed, cfg.mp);
    expect_identical(ref, soa);
  }
}

MeshParams base_params() { return MeshParams{}; }

MeshParams with(RouteAlgo algo, std::uint32_t vcs) {
  MeshParams p;
  p.algo = algo;
  p.virtual_channels = vcs;
  return p;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, MeshSoaIdentity,
    ::testing::Values(
        Config{Pattern::kUniform, 8, base_params(), "uniform_8"},
        Config{Pattern::kTranspose, 8, base_params(), "transpose_8"},
        Config{Pattern::kHotspot, 8, base_params(), "hotspot_8"},
        Config{Pattern::kUniform, 16, base_params(), "uniform_16"},
        Config{Pattern::kTranspose, 16, base_params(), "transpose_16"},
        Config{Pattern::kHotspot, 16, base_params(), "hotspot_16"},
        Config{Pattern::kUniform, 8, with(RouteAlgo::kWestFirstAdaptive, 1),
               "uniform_8_westfirst"},
        Config{Pattern::kHotspot, 8, with(RouteAlgo::kWestFirstAdaptive, 1),
               "hotspot_8_westfirst"},
        Config{Pattern::kUniform, 8, with(RouteAlgo::kXY, 2), "uniform_8_v2"},
        Config{Pattern::kTranspose, 8, with(RouteAlgo::kWestFirstAdaptive, 2),
               "transpose_8_wf_v2"}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return param_info.param.name;
    });

// The idle-skip fast-forward must be observationally invisible on both
// datapaths: sparse traffic with it forced off equals the skipped run.
TEST(MeshSoaIdentity, IdleSkipIsObservationallyIdentical) {
  for (bool reference : {false, true}) {
    RunResult runs[2];
    for (int skip = 0; skip < 2; ++skip) {
      set_reference_datapath(reference);
      MeshParams mp;
      mp.width = 8;
      mp.height = 8;
      Mesh net(mp);
      set_reference_datapath(false);
      net.set_idle_skip(skip == 1);
      std::vector<ConsumeSink> sinks(net.nodes());
      for (NodeId n = 0; n < net.nodes(); ++n) {
        sinks[n].keep_log(true);
        net.set_sink(n, &sinks[n]);
      }
      net.record_latencies(true);
      Rng rng(99);
      for (int i = 0; i < 40; ++i) {
        PacketDesc d;
        d.src = static_cast<NodeId>(rng.next_u64() % 64);
        d.dst = static_cast<NodeId>(rng.next_u64() % 64);
        d.payload_flits = 3;
        d.release_cycle = static_cast<std::int64_t>(i) * 4096;
        net.inject(d);
      }
      ASSERT_TRUE(net.run_until_drained(10'000'000));
      RunResult& r = runs[skip];
      r.final_cycle = net.cycle();
      r.activity = net.activity();
      r.lat_count = net.packet_latency().count();
      r.lat_mean_bits = std::bit_cast<std::uint64_t>(net.packet_latency().mean());
      r.latencies = net.latencies();
      for (const auto& s : sinks) {
        r.flits.insert(r.flits.end(), s.log().begin(), s.log().end());
        r.flit_cycles.insert(r.flit_cycles.end(), s.log_cycles().begin(),
                             s.log_cycles().end());
      }
    }
    expect_identical(runs[0], runs[1]);
  }
}

// --- machine level: SoA with quiet-cycle fast-forward vs reference ---------

core::MeshMachineParams machine_params(std::size_t grid, std::uint32_t t_p) {
  core::MeshMachineParams p;
  p.grid = grid;
  p.matrix_rows = grid * grid * 2;
  p.matrix_cols = grid * grid * 2;
  p.elements_per_packet = 8;
  p.mi.reorder_cycles_per_element = t_p;
  p.mi.dram.row_switch_cycles = 0;
  return p;
}

/// Runs `body` on a MeshMachine whose networks take the reference datapath
/// when `reference` (set_reference_datapath is snapshotted per Mesh).
template <typename Body>
auto on_datapath(bool reference, const core::MeshMachineParams& p,
                 Body body) {
  set_reference_datapath(reference);
  core::MeshMachine m(p);
  auto out = body(m);
  set_reference_datapath(false);
  return out;
}

void expect_same_activity(const MeshActivity& a, const MeshActivity& b) {
  EXPECT_EQ(a.buffer_writes, b.buffer_writes);
  EXPECT_EQ(a.buffer_reads, b.buffer_reads);
  EXPECT_EQ(a.crossbar_traversals, b.crossbar_traversals);
  EXPECT_EQ(a.link_traversals, b.link_traversals);
  EXPECT_EQ(a.arbitrations, b.arbitrations);
  EXPECT_EQ(a.injected_flits, b.injected_flits);
  EXPECT_EQ(a.ejected_flits, b.ejected_flits);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.ejected_packets, b.ejected_packets);
}

void expect_same_transpose(const core::TransposeRunReport& a,
                           const core::TransposeRunReport& b) {
  EXPECT_EQ(a.completion_cycle, b.completion_cycle);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.completion_ns),
            std::bit_cast<std::uint64_t>(b.completion_ns));
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cycles_per_element),
            std::bit_cast<std::uint64_t>(b.cycles_per_element));
  expect_same_activity(a.activity, b.activity);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_packet_latency_cycles),
            std::bit_cast<std::uint64_t>(b.mean_packet_latency_cycles));
}

TEST(MeshSoaMachine, Fft2dMatchesReference) {
  for (std::size_t grid : {4u, 8u}) {
    const auto p = machine_params(grid, 4);
    Rng rng(grid);
    std::vector<std::complex<double>> input(p.matrix_rows * p.matrix_cols);
    for (auto& v : input) v = {rng.next_double(), rng.next_double() - 0.5};
    struct Run {
      core::MeshRunReport rep;
      std::vector<std::complex<double>> image;
    };
    auto run = [&](core::MeshMachine& m) {
      Run r{m.run_fft2d(input), {}};
      r.image = m.result();
      return r;
    };
    const Run ref = on_datapath(true, p, run);
    const Run soa = on_datapath(false, p, run);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

    ASSERT_EQ(ref.rep.phases.size(), soa.rep.phases.size());
    for (std::size_t i = 0; i < ref.rep.phases.size(); ++i) {
      EXPECT_EQ(ref.rep.phases[i].name, soa.rep.phases[i].name);
      EXPECT_EQ(bits(ref.rep.phases[i].start_ns),
                bits(soa.rep.phases[i].start_ns));
      EXPECT_EQ(bits(ref.rep.phases[i].end_ns), bits(soa.rep.phases[i].end_ns))
          << ref.rep.phases[i].name;
    }
    EXPECT_EQ(bits(ref.rep.total_ns), bits(soa.rep.total_ns));
    EXPECT_EQ(bits(ref.rep.reorg_ns), bits(soa.rep.reorg_ns));
    EXPECT_EQ(ref.rep.flops, soa.rep.flops);
    EXPECT_EQ(bits(ref.rep.gflops), bits(soa.rep.gflops));
    EXPECT_EQ(bits(ref.rep.compute_efficiency),
              bits(soa.rep.compute_efficiency));
    EXPECT_EQ(bits(ref.rep.max_error_vs_reference),
              bits(soa.rep.max_error_vs_reference));
    // The ORION energy is a pure function of the accumulated activity.
    EXPECT_EQ(bits(ref.rep.comm_energy_pj), bits(soa.rep.comm_energy_pj));
    EXPECT_EQ(bits(ref.rep.compute_energy_pj),
              bits(soa.rep.compute_energy_pj));
    ASSERT_EQ(ref.image.size(), soa.image.size());
    EXPECT_EQ(std::memcmp(ref.image.data(), soa.image.data(),
                          ref.image.size() * sizeof(ref.image[0])),
              0);
  }
}

// V = 2 takes the generic router path through the same port countdowns.
TEST(MeshSoaMachine, TransposeWritebackMatchesReference) {
  for (std::uint32_t vcs : {1u, 2u}) {
    for (std::uint32_t t_p : {1u, 4u}) {
      auto p = machine_params(4, t_p);
      p.net.virtual_channels = vcs;
      auto run = [](core::MeshMachine& m) {
        return m.run_transpose_writeback(64);
      };
      expect_same_transpose(on_datapath(true, p, run),
                            on_datapath(false, p, run));
    }
  }
}

TEST(MeshSoaMachine, MultiportTransposeMatchesReference) {
  for (std::uint32_t vcs : {1u, 2u}) {
    for (std::uint32_t ports : {2u, 4u}) {
      auto p = machine_params(4, 4);
      p.net.virtual_channels = vcs;
      auto run = [ports](core::MeshMachine& m) {
        return m.run_transpose_writeback_multiport(64, ports);
      };
      expect_same_transpose(on_datapath(true, p, run),
                            on_datapath(false, p, run));
    }
  }
}

}  // namespace
}  // namespace psync::mesh
