#include "psync/mesh/memory_interface.hpp"

#include <gtest/gtest.h>

#include <map>

#include "psync/common/check.hpp"
#include "psync/mesh/traffic.hpp"

namespace psync::mesh {
namespace {

MemoryInterfaceParams paper_mi(std::uint32_t t_p) {
  MemoryInterfaceParams p;
  p.reorder_cycles_per_element = t_p;
  p.element_bits = 64;
  p.dram.row_size_bits = 2048;
  p.dram.bus_width_bits = 64;
  p.dram.header_bits = 64;
  return p;
}

MeshParams net(std::uint32_t dim) {
  MeshParams p;
  p.width = dim;
  p.height = dim;
  return p;
}

TEST(MemoryInterface, PerPacketServiceTimeMatchesStageModel) {
  // One 32-element packet: 33 ejection cycles + 32*t_p reorder + 33 DRAM
  // write; the interface must be busy for reorder+write after the tail.
  Mesh m(net(2));
  MemoryInterface mi(paper_mi(1), 32);
  m.set_sink(0, &mi);
  PacketDesc d;
  d.src = 3;
  d.dst = 0;
  d.payload_flits = 32;
  m.inject(d);
  while (!mi.done(m.cycle()) && m.cycle() < 10000) m.step();
  ASSERT_TRUE(mi.done(m.cycle()));
  EXPECT_EQ(mi.elements_received(), 32u);
  EXPECT_EQ(mi.packets_received(), 1u);
  EXPECT_EQ(mi.reorder_stall_cycles(), 32u);
  EXPECT_EQ(mi.dram_write_cycles(), 33u);
}

TEST(MemoryInterface, SteadyStateCyclesPerElement) {
  // Many back-to-back packets: the non-overlapped stage model costs about
  // (33 + 32*t_p + 33)/32 cycles per element once the pipe is full.
  for (std::uint32_t t_p : {1u, 4u}) {
    Mesh m(net(2));
    const std::uint32_t elements = 512;
    MemoryInterface mi(paper_mi(t_p), 4ULL * elements);
    m.set_sink(0, &mi);
    const auto traffic = transpose_writeback_traffic(m, 0, elements, 32);
    for (const auto& d : traffic) m.inject(d);
    // Node 0 is the memory node and does not send in this generator; adjust
    // the expectation accordingly.
    const std::uint64_t expected = 3ULL * elements;
    Mesh m2(net(2));
    MemoryInterface mi2(paper_mi(t_p), expected);
    m2.set_sink(0, &mi2);
    for (const auto& d : traffic) m2.inject(d);
    while (!mi2.done(m2.cycle()) && m2.cycle() < 2000000) m2.step();
    ASSERT_TRUE(mi2.done(m2.cycle()));
    const double cpe = static_cast<double>(mi2.completion_cycle()) /
                       static_cast<double>(expected);
    const double model = (33.0 + 32.0 * t_p + 33.0) / 32.0;
    EXPECT_GT(cpe, model * 0.95);
    EXPECT_LT(cpe, model * 1.4);  // + network fill/drain effects
  }
}

TEST(MemoryInterface, OverlappedStagesApproachPortBound) {
  Mesh m(net(2));
  auto p = paper_mi(4);
  p.overlap_stages = true;
  const std::uint32_t elements = 512;
  MemoryInterface mi(p, 3ULL * elements);
  m.set_sink(0, &mi);
  for (const auto& d : transpose_writeback_traffic(m, 0, elements, 32)) {
    m.inject(d);
  }
  while (!mi.done(m.cycle()) && m.cycle() < 2000000) m.step();
  ASSERT_TRUE(mi.done(m.cycle()));
  const double cpe = static_cast<double>(mi.completion_cycle()) /
                     (3.0 * elements);
  // Port-bound: ~33/32 cycles per element.
  EXPECT_LT(cpe, 1.4);
}

TEST(MemoryInterface, CollectorSeesEveryElementWithCorrectTag) {
  Mesh m(net(2));
  MemoryInterface mi(paper_mi(1), 64);
  std::map<std::uint64_t, std::uint64_t> collected;  // index -> payload
  mi.set_collector([&](NodeId src, std::uint64_t idx, std::uint64_t word) {
    EXPECT_EQ(src, 2u);
    collected[idx] = word;
  });
  m.set_sink(0, &mi);
  for (int pkt = 0; pkt < 2; ++pkt) {
    PacketDesc d;
    d.src = 2;
    d.dst = 0;
    d.payload_flits = 32;
    d.payload_base = 100 + pkt * 32;  // element tag
    d.words.resize(32);
    for (std::uint32_t i = 0; i < 32; ++i) d.words[i] = 5000u + pkt * 32u + i;
    m.inject(d);
  }
  while (!mi.done(m.cycle()) && m.cycle() < 10000) m.step();
  ASSERT_TRUE(mi.done(m.cycle()));
  ASSERT_EQ(collected.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(collected.count(100 + i));
    EXPECT_EQ(collected[100 + i], 5000 + i);
  }
}

TEST(MemoryInterface, PartialFinalRowIsFlushed) {
  // 16 elements = half a DRAM row; the final flush must still write it.
  Mesh m(net(2));
  MemoryInterface mi(paper_mi(1), 16);
  m.set_sink(0, &mi);
  PacketDesc d;
  d.src = 1;
  d.dst = 0;
  d.payload_flits = 16;
  m.inject(d);
  while (!mi.done(m.cycle()) && m.cycle() < 10000) m.step();
  ASSERT_TRUE(mi.done(m.cycle()));
  EXPECT_EQ(mi.dram_write_cycles(), 33u);  // one (padded) row transaction
}

TEST(MemoryInterface, RejectsMisalignedRowConfig) {
  MemoryInterfaceParams p;
  p.element_bits = 96;  // does not divide 2048
  EXPECT_THROW(MemoryInterface(p, 1), SimulationError);
}

}  // namespace
}  // namespace psync::mesh
