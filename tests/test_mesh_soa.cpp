// Differential equivalence of the production mesh datapath (mesh::Mesh,
// structure of arrays) against the test oracle (oracle::ReferenceMesh, the
// original array-of-structs model): identical traffic is run through both
// and every observable — the per-flit ejection trace with its cycle stamps,
// the final activity counters, the Welford latency moments bit for bit, and
// the per-packet latency log — must match exactly. Patterns cover uniform
// random, transpose permutation, hotspot and all-to-one burst traffic on
// 8x8 and 16x16 meshes, across seeds, both routing algorithms, both the
// packed (V=1) and generic (V=2) VC layouts, and the byte-lane edge of the
// FIFO/credit arrays (buffer depth 255 and 128). The MeshSoaMachine cases
// replay the traffic of MeshMachine's phases — delivery from the memory node
// into storing sinks, and writeback into one or more MemoryInterface ports
// whose countdowns drive the production path's quiet-cycle fast-forward —
// and check on both meshes that every collected word equals its tag
// (payload_base + position): the mesh carries no data, and MeshMachine
// moves its words by exactly that tag permutation.
#include "psync/mesh/mesh.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/mesh/memory_interface.hpp"
#include "psync/oracle/reference_mesh.hpp"

namespace psync::mesh {
namespace {

// kBurst: every packet targets the center node at cycle 0, so the FIFOs
// and credit counters around it run full.
enum class Pattern { kUniform, kTranspose, kHotspot, kBurst };

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
      case Pattern::kBurst:
        d.dst = (dim / 2) * dim + dim / 2;
        break;
    }
    d.payload_flits = 1 + static_cast<std::uint32_t>(rng.next_u64() % 12);
    d.payload_base = rng.next_u64();
    d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 4000);
    if (pattern == Pattern::kBurst) d.release_cycle = 0;
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

/// Welford moments of `net`'s packet latencies, bit-cast into `r`.
template <typename Net>
void capture_latency(const Net& net, RunResult* r) {
  const auto& stats = net.packet_latency();
  r->lat_count = stats.count();
  r->lat_mean_bits = std::bit_cast<std::uint64_t>(stats.mean());
  r->lat_m2_bits = std::bit_cast<std::uint64_t>(stats.variance());
  r->lat_min_bits = std::bit_cast<std::uint64_t>(stats.min());
  r->lat_max_bits = std::bit_cast<std::uint64_t>(stats.max());
  r->latencies = net.latencies();
}

/// Runs the pattern on a fresh `Net` (mesh::Mesh or oracle::ReferenceMesh)
/// with a logging sink at every node.
template <typename Net>
RunResult run_one(Pattern pattern, std::uint32_t dim, std::uint64_t seed,
                  MeshParams mp) {
  mp.width = dim;
  mp.height = dim;
  Net net(mp);

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
  capture_latency(net, &r);
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
    const RunResult ref =
        run_one<oracle::ReferenceMesh>(cfg.pattern, cfg.dim, seed, cfg.mp);
    const RunResult soa = run_one<Mesh>(cfg.pattern, cfg.dim, seed, cfg.mp);
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

// FIFO occupancy and credits are byte lanes in the production datapath:
// kMaxBufferDepth (255) is the largest depth they hold (a non-power-of-two
// ring), 128 the largest power of two.
MeshParams deep(std::uint32_t depth, std::uint32_t vcs) {
  MeshParams p = with(RouteAlgo::kXY, vcs);
  p.buffer_depth = depth;
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
               "transpose_8_wf_v2"},
        Config{Pattern::kBurst, 8, deep(kMaxBufferDepth, 1),
               "burst_8_depth255"},
        Config{Pattern::kBurst, 8, deep(kMaxBufferDepth, 2),
               "burst_8_depth255_v2"},
        Config{Pattern::kBurst, 8, deep(128, 1), "burst_8_depth128"},
        Config{Pattern::kBurst, 8, deep(128, 2), "burst_8_depth128_v2"}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return param_info.param.name;
    });

// The idle-skip fast-forward must be observationally invisible on both
// networks: sparse traffic with it forced off equals the skipped run.
template <typename Net>
void expect_idle_skip_invisible() {
  RunResult runs[2];
  for (int skip = 0; skip < 2; ++skip) {
    MeshParams mp;
    mp.width = 8;
    mp.height = 8;
    Net net(mp);
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

TEST(MeshSoaIdentity, IdleSkipIsObservationallyIdentical) {
  expect_idle_skip_invisible<Mesh>();
  expect_idle_skip_invisible<oracle::ReferenceMesh>();
}

// --- MeshMachine phase traffic: production vs oracle -----------------------
//
// MeshMachine runs every phase on a fresh network: a delivery phase streams
// words from the memory node into one-flit-per-cycle storing sinks, and a
// writeback phase streams every node's block (released at its compute-done
// cycle) into MemoryInterface ports. These cases replay that traffic on
// both networks and compare the final cycle, activity, latency bits,
// per-sink arrival logs, and each port's completion cycle and words.

constexpr std::uint32_t kPerPacket = 8;  // elements per packet

/// MeshMachine's processor sink: one flit per cycle, payload words stored at
/// (head tag + position) in a local buffer; logs every accepted arrival.
class StoringSink final : public Sink {
 public:
  StoringSink(std::size_t words, std::size_t* finished)
      : buffer_(words), finished_(finished) {}

  bool accept(const Flit& flit, std::int64_t cycle) override {
    if (cycle == used_cycle_) return false;  // one flit per cycle
    used_cycle_ = cycle;
    arrivals_.push_back(cycle);
    if (flit.is_head() && !flit.is_tail()) {
      base_ = flit.payload;
      pos_ = 0;
      return true;
    }
    buffer_.at(base_ + pos_) = flit.payload;
    ++pos_;
    if (++received_ == buffer_.size()) ++*finished_;
    return true;
  }

  const std::vector<std::uint64_t>& buffer() const { return buffer_; }
  const std::vector<std::int64_t>& arrivals() const { return arrivals_; }

 private:
  std::vector<std::uint64_t> buffer_;
  std::size_t* finished_;
  std::vector<std::int64_t> arrivals_;
  std::uint64_t received_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t pos_ = 0;
  std::int64_t used_cycle_ = -1;
};

struct PhaseResult {
  RunResult net;  // final cycle, activity, latency bits
  std::vector<std::vector<std::int64_t>> arrivals;  // per sink
  std::vector<std::vector<std::uint64_t>> words;    // per sink or port
  std::uint64_t mistagged = 0;  // collected words that differ from the tag
  std::vector<std::int64_t> completion;              // per port
  std::vector<std::uint64_t> elements;               // per port
  std::vector<std::uint64_t> packets;                // per port
};

MeshParams phase_params(std::uint32_t grid, std::uint32_t vcs) {
  MeshParams mp;
  mp.width = grid;
  mp.height = grid;
  mp.virtual_channels = vcs;
  return mp;
}

template <typename Net>
void finish(const Net& net, PhaseResult* r) {
  r->net.final_cycle = net.cycle();
  r->net.activity = net.activity();
  capture_latency(net, &r->net);
}

/// Delivery: the memory node (0) sends `per_node` words to every node,
/// kPerPacket per packet tagged with node-local indices, all released at
/// cycle 0.
template <typename Net>
PhaseResult run_delivery(std::uint32_t grid, std::uint32_t vcs,
                         std::size_t per_node) {
  Net net(phase_params(grid, vcs));
  net.record_latencies(true);
  const NodeId n_nodes = net.nodes();
  std::size_t finished = 0;
  std::vector<std::unique_ptr<StoringSink>> sinks;
  for (NodeId n = 0; n < n_nodes; ++n) {
    sinks.push_back(std::make_unique<StoringSink>(per_node, &finished));
    net.set_sink(n, sinks.back().get());
  }
  for (NodeId n = 0; n < n_nodes; ++n) {
    for (std::size_t e = 0; e < per_node; e += kPerPacket) {
      PacketDesc d;
      d.src = 0;
      d.dst = n;
      d.payload_flits = kPerPacket;
      d.payload_base = e;
      net.inject(d);
    }
  }
  while (finished < n_nodes) net.step();

  PhaseResult r;
  finish(net, &r);
  for (const auto& s : sinks) {
    r.arrivals.push_back(s->arrivals());
    r.words.push_back(s->buffer());
    for (std::size_t e = 0; e < per_node; ++e) {
      r.mistagged += s->buffer()[e] != e;
    }
  }
  return r;
}

/// Writeback: every node sends `per_node` elements (kPerPacket per packet,
/// tagged with source-linear indices), column-partitioned across `ports`
/// memory ports at the mesh corners, each node released at a staggered
/// cycle.
template <typename Net>
PhaseResult run_writeback(std::uint32_t grid, std::uint32_t vcs,
                          std::uint32_t t_p, std::uint32_t ports,
                          std::uint32_t per_node) {
  Net net(phase_params(grid, vcs));
  net.record_latencies(true);
  const NodeId corner[4] = {net.node_at(0, 0), net.node_at(grid - 1, grid - 1),
                            net.node_at(grid - 1, 0),
                            net.node_at(0, grid - 1)};
  MemoryInterfaceParams mip;
  mip.reorder_cycles_per_element = t_p;
  mip.dram.row_switch_cycles = 0;
  const std::uint64_t per_port =
      static_cast<std::uint64_t>(net.nodes()) * per_node / ports;
  PhaseResult r;
  r.words.assign(ports, std::vector<std::uint64_t>(
                            static_cast<std::size_t>(net.nodes()) * per_node));
  std::vector<std::unique_ptr<MemoryInterface>> mis;
  for (std::uint32_t p = 0; p < ports; ++p) {
    mis.push_back(std::make_unique<MemoryInterface>(mip, per_port));
    mis.back()->set_collector(
        [&r, p](NodeId, std::uint64_t idx, std::uint64_t word) {
          r.words[p].at(idx) = word;
          r.mistagged += word != idx;
        });
    net.set_sink(corner[p], mis.back().get());
  }

  Rng rng(grid * 131 + vcs * 7 + t_p);
  const std::uint32_t per_port_node = per_node / ports;
  for (NodeId n = 0; n < net.nodes(); ++n) {
    const auto release = static_cast<std::int64_t>(rng.next_u64() % 400);
    for (std::uint32_t p = 0; p < ports; ++p) {
      for (std::uint32_t e = 0; e < per_port_node; e += kPerPacket) {
        PacketDesc d;
        d.src = n;
        d.dst = corner[p];
        d.payload_flits = kPerPacket;
        d.payload_base = static_cast<std::uint64_t>(n) * per_node +
                         static_cast<std::uint64_t>(p) * per_port_node + e;
        d.release_cycle = release;
        net.inject(d);
      }
    }
  }
  const auto all_done = [&] {
    for (const auto& mi : mis) {
      if (!mi->done(net.cycle())) return false;
    }
    return true;
  };
  while (!all_done()) net.step();

  finish(net, &r);
  for (const auto& mi : mis) {
    r.completion.push_back(mi->completion_cycle());
    r.elements.push_back(mi->elements_received());
    r.packets.push_back(mi->packets_received());
  }
  return r;
}

void expect_same_phase(const PhaseResult& ref, const PhaseResult& soa) {
  expect_identical(ref.net, soa.net);
  EXPECT_EQ(ref.arrivals, soa.arrivals);
  EXPECT_EQ(ref.words, soa.words);
  EXPECT_EQ(ref.completion, soa.completion);
  EXPECT_EQ(ref.elements, soa.elements);
  EXPECT_EQ(ref.packets, soa.packets);
  EXPECT_EQ(ref.mistagged, 0u);
  EXPECT_EQ(soa.mistagged, 0u);
}

// run_fft2d's traffic: a delivery phase into storing sinks, then a
// writeback with staggered releases into the single memory port.
TEST(MeshSoaMachine, Fft2dMatchesReference) {
  for (std::uint32_t grid : {4u, 8u}) {
    for (std::uint32_t vcs : {1u, 2u}) {
      SCOPED_TRACE("grid " + std::to_string(grid) + " V " +
                   std::to_string(vcs));
      expect_same_phase(run_delivery<oracle::ReferenceMesh>(grid, vcs, 64),
                        run_delivery<Mesh>(grid, vcs, 64));
      expect_same_phase(
          run_writeback<oracle::ReferenceMesh>(grid, vcs, 4, 1, 64),
          run_writeback<Mesh>(grid, vcs, 4, 1, 64));
    }
  }
}

// run_transpose_writeback's traffic; V = 2 takes the generic router path
// through the same port countdowns.
TEST(MeshSoaMachine, TransposeWritebackMatchesReference) {
  for (std::uint32_t vcs : {1u, 2u}) {
    for (std::uint32_t t_p : {1u, 4u}) {
      SCOPED_TRACE("V " + std::to_string(vcs) + " t_p " + std::to_string(t_p));
      expect_same_phase(
          run_writeback<oracle::ReferenceMesh>(4, vcs, t_p, 1, 64),
          run_writeback<Mesh>(4, vcs, t_p, 1, 64));
    }
  }
}

// run_transpose_writeback_multiport's traffic: 2 and 4 corner ports.
TEST(MeshSoaMachine, MultiportTransposeMatchesReference) {
  for (std::uint32_t vcs : {1u, 2u}) {
    for (std::uint32_t t_p : {1u, 4u}) {
      for (std::uint32_t ports : {2u, 4u}) {
        SCOPED_TRACE("V " + std::to_string(vcs) + " t_p " +
                     std::to_string(t_p) + " ports " + std::to_string(ports));
        expect_same_phase(
            run_writeback<oracle::ReferenceMesh>(4, vcs, t_p, ports, 64),
            run_writeback<Mesh>(4, vcs, t_p, ports, 64));
      }
    }
  }
}

}  // namespace
}  // namespace psync::mesh
