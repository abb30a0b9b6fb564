// Equivalence tests for the perf fast paths: every optimization in the
// mesh, FFT, and reliability layers must be observationally identical to
// the reference implementation it replaced. These tests run both sides on
// the same inputs and require bit-identical outputs, stats, and reports —
// the fast paths buy wall-clock time, never different answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/driver/runner.hpp"
#include "psync/fft/fft.hpp"
#include "psync/mesh/mesh.hpp"
#include "psync/reliability/crc32.hpp"
#include "psync/reliability/fault_model.hpp"
#include "psync/reliability/framing.hpp"
#include "psync/reliability/secded.hpp"

namespace psync {
namespace {

// --- mesh: idle-cycle skip --------------------------------------------

struct MeshOutcome {
  std::int64_t final_cycle = 0;
  mesh::MeshActivity activity;
  std::uint64_t latency_count = 0;
  double latency_sum = 0.0;
  double latency_min = 0.0;
  double latency_max = 0.0;
  std::vector<std::uint64_t> payloads;   // every ejected flit, all sinks
  std::vector<std::int64_t> eject_cycles;

  bool operator==(const MeshOutcome& o) const {
    return final_cycle == o.final_cycle &&
           std::memcmp(&activity, &o.activity, sizeof(activity)) == 0 &&
           latency_count == o.latency_count && latency_sum == o.latency_sum &&
           latency_min == o.latency_min && latency_max == o.latency_max &&
           payloads == o.payloads && eject_cycles == o.eject_cycles;
  }
};

/// The observables of a drained mesh, with the logs of `sinks[first..]`.
MeshOutcome outcome_of(const mesh::Mesh& net,
                       const std::vector<mesh::ConsumeSink>& sinks,
                       mesh::NodeId first) {
  MeshOutcome out;
  out.final_cycle = net.cycle();
  out.activity = net.activity();
  out.latency_count = net.packet_latency().count();
  out.latency_sum = net.packet_latency().sum();
  out.latency_min = net.packet_latency().min();
  out.latency_max = net.packet_latency().max();
  for (mesh::NodeId n = first; n < net.nodes(); ++n) {
    for (const auto& f : sinks[n].log()) out.payloads.push_back(f.payload);
    for (std::int64_t c : sinks[n].log_cycles()) out.eject_cycles.push_back(c);
  }
  return out;
}

MeshOutcome run_mesh(const mesh::MeshParams& mp,
                     const std::vector<mesh::PacketDesc>& packets,
                     bool idle_skip) {
  mesh::Mesh net(mp);
  net.set_idle_skip(idle_skip);
  std::vector<mesh::ConsumeSink> sinks(net.nodes());
  for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
    sinks[n].keep_log(true);
    net.set_sink(n, &sinks[n]);
  }
  for (const auto& d : packets) net.inject(d);
  EXPECT_TRUE(net.run_until_drained(20'000'000));
  return outcome_of(net, sinks, 0);
}

void expect_skip_equivalent(const mesh::MeshParams& mp,
                            const std::vector<mesh::PacketDesc>& packets) {
  const MeshOutcome fast = run_mesh(mp, packets, true);
  const MeshOutcome naive = run_mesh(mp, packets, false);
  EXPECT_TRUE(fast == naive)
      << "idle-skip changed observable behavior: cycle " << fast.final_cycle
      << " vs " << naive.final_cycle << ", ejected " << fast.payloads.size()
      << " vs " << naive.payloads.size();
}

std::vector<mesh::PacketDesc> sparse_random_traffic(std::uint32_t nodes,
                                                    std::uint64_t seed) {
  // Releases spread tens of thousands of cycles apart: the drain is almost
  // entirely idle, so every skipped cycle gets exercised.
  Rng rng(seed);
  std::vector<mesh::PacketDesc> packets;
  for (int i = 0; i < 50; ++i) {
    mesh::PacketDesc d;
    d.src = static_cast<mesh::NodeId>(rng.next_u64() % nodes);
    d.dst = static_cast<mesh::NodeId>(rng.next_u64() % nodes);
    d.payload_flits = 1 + static_cast<std::uint32_t>(rng.next_u64() % 12);
    d.payload_base = static_cast<std::uint64_t>(i) << 20;
    d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 2'000'000);
    packets.push_back(d);
  }
  return packets;
}

TEST(MeshIdleSkip, SparseRandomTrafficIdentical) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  expect_skip_equivalent(mp, sparse_random_traffic(16, 1));
}

TEST(MeshIdleSkip, BurstyClustersIdentical) {
  // Bursts of overlapping packets separated by long idle gaps: the skip
  // must engage between bursts but never inside one.
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  std::vector<mesh::PacketDesc> packets;
  Rng rng(7);
  for (int burst = 0; burst < 6; ++burst) {
    const std::int64_t t0 = burst * 500'000;
    for (int i = 0; i < 12; ++i) {
      mesh::PacketDesc d;
      d.src = static_cast<mesh::NodeId>(rng.next_u64() % 16);
      d.dst = static_cast<mesh::NodeId>(rng.next_u64() % 16);
      d.payload_flits = 4;
      d.release_cycle = t0 + static_cast<std::int64_t>(rng.next_u64() % 40);
      packets.push_back(d);
    }
  }
  expect_skip_equivalent(mp, packets);
}

TEST(MeshIdleSkip, ScatterFromCornerIdentical) {
  // Multicast-like delivery: the corner node streams one packet to every
  // node in rounds, widely spaced.
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  std::vector<mesh::PacketDesc> packets;
  for (int round = 0; round < 3; ++round) {
    for (mesh::NodeId n = 0; n < 16; ++n) {
      mesh::PacketDesc d;
      d.src = 0;
      d.dst = n;
      d.payload_flits = 8;
      d.payload_base = static_cast<std::uint64_t>(round) * 100;
      d.release_cycle = round * 300'000 + n * 7;
      packets.push_back(d);
    }
  }
  expect_skip_equivalent(mp, packets);
}

TEST(MeshIdleSkip, GatherToCornerIdentical) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  std::vector<mesh::PacketDesc> packets;
  for (int round = 0; round < 3; ++round) {
    for (mesh::NodeId n = 0; n < 16; ++n) {
      mesh::PacketDesc d;
      d.src = n;
      d.dst = 0;
      d.payload_flits = 6;
      d.release_cycle = round * 250'000 + n * 3;
      packets.push_back(d);
    }
  }
  expect_skip_equivalent(mp, packets);
}

TEST(MeshIdleSkip, VirtualChannelsAndWestFirstIdentical) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  mp.virtual_channels = 2;
  mp.buffer_depth = 3;  // non-power-of-two: exercises the masked FIFO
  mp.algo = mesh::RouteAlgo::kWestFirstAdaptive;
  expect_skip_equivalent(mp, sparse_random_traffic(16, 2));
}

TEST(MeshIdleSkip, ReleaseAtOrBeforeCurrentCycleIdentical) {
  // Packets whose release cycle is already due when injected (release 0)
  // alongside far-future ones.
  mesh::MeshParams mp;
  mp.width = 2;
  mp.height = 2;
  std::vector<mesh::PacketDesc> packets;
  for (int i = 0; i < 4; ++i) {
    mesh::PacketDesc d;
    d.src = static_cast<mesh::NodeId>(i);
    d.dst = static_cast<mesh::NodeId>(3 - i);
    d.payload_flits = 2;
    d.release_cycle = 0;
    packets.push_back(d);
    d.release_cycle = 1'000'000 + i;
    packets.push_back(d);
  }
  expect_skip_equivalent(mp, packets);
}

// --- mesh: quiet-cycle fast-forward over a sink countdown -----------------

/// A port shaped like the MemoryInterface without its DRAM model: one flit
/// per cycle, then busy for `hold` cycles after every tail. With
/// `report_ready` it tells the mesh when it opens again (ready_cycle);
/// without, it keeps the Sink default and must be retried every cycle.
class CountdownSink final : public mesh::Sink {
 public:
  CountdownSink(std::int64_t hold, bool report_ready)
      : hold_(hold), report_ready_(report_ready) {}

  bool accept(const mesh::Flit& flit, std::int64_t cycle) override {
    offers_.push_back(cycle);
    if (cycle == accepted_cycle_ || cycle < busy_until_) return false;
    accepted_cycle_ = cycle;
    payloads_.push_back(flit.payload);
    cycles_.push_back(cycle);
    if (flit.is_tail()) busy_until_ = cycle + 1 + hold_;
    return true;
  }
  std::int64_t ready_cycle(std::int64_t cycle) const override {
    return report_ready_ ? std::max(cycle + 1, busy_until_)
                         : mesh::Sink::ready_cycle(cycle);
  }

  std::vector<std::int64_t> offers_;  // every accept() call's cycle
  std::vector<std::uint64_t> payloads_;
  std::vector<std::int64_t> cycles_;

 private:
  std::int64_t hold_;
  bool report_ready_;
  std::int64_t accepted_cycle_ = -1;
  std::int64_t busy_until_ = 0;
};

struct CountdownOutcome {
  MeshOutcome mesh;  // ConsumeSink logs at every other node
  std::vector<std::uint64_t> port_payloads;
  std::vector<std::int64_t> port_cycles;
  std::vector<double> latencies;
  std::vector<std::int64_t> offers;
  std::uint64_t steps = 0;
};

/// Drains `packets` with a CountdownSink at node 0 by calling step() until
/// drained, counting the calls.
CountdownOutcome run_countdown(const mesh::MeshParams& mp,
                               const std::vector<mesh::PacketDesc>& packets,
                               std::int64_t hold, bool report_ready,
                               bool idle_skip) {
  mesh::Mesh net(mp);
  net.set_idle_skip(idle_skip);
  net.record_latencies(true);
  std::vector<mesh::ConsumeSink> sinks(net.nodes());
  for (mesh::NodeId n = 1; n < net.nodes(); ++n) {
    sinks[n].keep_log(true);
    net.set_sink(n, &sinks[n]);
  }
  CountdownSink port(hold, report_ready);
  net.set_sink(0, &port);
  for (const auto& d : packets) net.inject(d);

  CountdownOutcome out;
  while (!net.drained() && net.cycle() < 10'000'000) {
    net.step();
    ++out.steps;
  }
  EXPECT_TRUE(net.drained());
  out.mesh = outcome_of(net, sinks, 1);
  out.port_payloads = port.payloads_;
  out.port_cycles = port.cycles_;
  out.latencies = net.latencies();
  out.offers = port.offers_;
  return out;
}

void expect_countdown_identical(const CountdownOutcome& fast,
                                const CountdownOutcome& naive) {
  EXPECT_TRUE(fast.mesh == naive.mesh)
      << "cycle " << fast.mesh.final_cycle << " vs " << naive.mesh.final_cycle;
  EXPECT_EQ(fast.port_payloads, naive.port_payloads);
  EXPECT_EQ(fast.port_cycles, naive.port_cycles);
  EXPECT_EQ(fast.latencies, naive.latencies);
}

/// Every node but the port writes `per_node` packets back to node 0, the
/// transpose-writeback shape that keeps the port in its countdown.
std::vector<mesh::PacketDesc> writeback_to_port(std::uint32_t nodes,
                                                int per_node) {
  std::vector<mesh::PacketDesc> packets;
  for (mesh::NodeId n = 1; n < nodes; ++n) {
    for (int k = 0; k < per_node; ++k) {
      mesh::PacketDesc d;
      d.src = n;
      d.dst = 0;
      d.payload_flits = 8;
      d.payload_base = (static_cast<std::uint64_t>(n) << 16) +
                       static_cast<std::uint64_t>(k) * 8;
      d.release_cycle = static_cast<std::int64_t>(n) * 5;
      packets.push_back(d);
    }
  }
  return packets;
}

TEST(MeshQuietSkip, ReadyCycleSinkMatchesPlainSteppingInFewerSteps) {
  for (std::uint32_t vcs : {1u, 2u}) {  // packed and generic router paths
    mesh::MeshParams mp;
    mp.width = 4;
    mp.height = 4;
    mp.virtual_channels = vcs;
    const auto packets = writeback_to_port(16, 3);
    const auto fast = run_countdown(mp, packets, 40, true, true);
    const auto naive = run_countdown(mp, packets, 40, true, false);
    expect_countdown_identical(fast, naive);
    EXPECT_EQ(fast.port_payloads.size(), 15u * 3u * 9u);
    EXPECT_LT(fast.steps, naive.steps) << "V=" << vcs;
    EXPECT_EQ(naive.steps, static_cast<std::uint64_t>(naive.mesh.final_cycle));
  }
}

TEST(MeshQuietSkip, ReleaseInsideACountdownIsNotJumpedOver) {
  // Node 5 writes one packet to the port, which then counts down for
  // 10000 cycles with the next packet (from node 6) refused at its door.
  // A packet released at cycle 3000, to an ordinary sink, must still be
  // injected and delivered on the cycles plain stepping gives it.
  for (std::uint32_t vcs : {1u, 2u}) {
    mesh::MeshParams mp;
    mp.width = 4;
    mp.height = 4;
    mp.virtual_channels = vcs;
    std::vector<mesh::PacketDesc> packets;
    mesh::PacketDesc d;
    d.dst = 0;
    d.payload_flits = 4;
    d.src = 5;
    packets.push_back(d);
    d.src = 6;
    d.release_cycle = 20;
    packets.push_back(d);
    d.src = 12;
    d.dst = 15;
    d.payload_base = 777;
    d.release_cycle = 3000;
    packets.push_back(d);

    const auto fast = run_countdown(mp, packets, 10'000, true, true);
    const auto naive = run_countdown(mp, packets, 10'000, true, false);
    expect_countdown_identical(fast, naive);
    ASSERT_EQ(fast.mesh.eject_cycles.size(), 5u);
    EXPECT_GT(fast.mesh.eject_cycles.front(), 3000);
    EXPECT_LT(fast.mesh.eject_cycles.back(), 3100);
    EXPECT_GT(fast.port_cycles.back(), 10'000);
    EXPECT_LT(fast.steps, naive.steps / 10);
  }
}

TEST(MeshQuietSkip, SinkWithoutReadyCycleIsRetriedEveryCycle) {
  // The same countdown behind the default ready_cycle(): the mesh may not
  // skip a single retry, so it offers the refused flit on every cycle of
  // the countdown and steps exactly as often as plain stepping.
  for (std::uint32_t vcs : {1u, 2u}) {
    mesh::MeshParams mp;
    mp.width = 4;
    mp.height = 4;
    mp.virtual_channels = vcs;
    std::vector<mesh::PacketDesc> packets;
    mesh::PacketDesc d;
    d.dst = 0;
    d.payload_flits = 4;
    d.src = 5;
    packets.push_back(d);
    d.src = 6;
    packets.push_back(d);

    const auto fast = run_countdown(mp, packets, 500, false, true);
    const auto naive = run_countdown(mp, packets, 500, false, false);
    expect_countdown_identical(fast, naive);
    EXPECT_EQ(fast.steps, naive.steps);
    EXPECT_EQ(fast.offers, naive.offers);
    // Between the first packet's tail and the second one's head, one
    // offer per cycle from the head's first refusal on.
    const std::int64_t tail = fast.port_cycles[4];
    const std::int64_t head = fast.port_cycles[5];
    EXPECT_EQ(head - tail, 501);
    std::vector<std::int64_t> retries;
    for (std::int64_t c : fast.offers) {
      if (c > tail && c <= head) retries.push_back(c);
    }
    ASSERT_GE(retries.size(), 490u);
    EXPECT_EQ(retries.back(), head);
    for (std::size_t i = 1; i < retries.size(); ++i) {
      EXPECT_EQ(retries[i], retries[i - 1] + 1);
    }
  }
}

TEST(MeshQuietSkip, RunUntilDrainedStopsAtItsLimit) {
  mesh::MeshParams mp;
  mp.width = 4;
  mp.height = 4;
  // A waiter whose sink opens far past the limit.
  {
    mesh::Mesh net(mp);
    CountdownSink port(1'000'000, true);
    net.set_sink(0, &port);
    mesh::PacketDesc d;
    d.dst = 0;
    d.payload_flits = 2;
    d.src = 3;
    net.inject(d);
    d.src = 12;
    net.inject(d);
    EXPECT_FALSE(net.run_until_drained(500));
    EXPECT_EQ(net.cycle(), 500);
    EXPECT_TRUE(net.run_until_drained(2'000'000));
    EXPECT_GT(net.cycle(), 1'000'000);
  }
  // No waiter: the next release lies past the limit.
  {
    mesh::Mesh net(mp);
    mesh::PacketDesc d;
    d.src = 1;
    d.dst = 2;
    d.release_cycle = 5'000'000;
    net.inject(d);
    EXPECT_FALSE(net.run_until_drained(100));
    EXPECT_EQ(net.cycle(), 100);
  }
}

// --- fft: fused kernel vs strided reference ---------------------------

std::vector<fft::Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fft::Complex> x(n);
  for (auto& v : x) v = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  return x;
}

bool bit_identical(const std::vector<fft::Complex>& a,
                   const std::vector<fft::Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(fft::Complex)) == 0;
}

TEST(FftFastKernel, ForwardBitIdenticalToReferenceAcrossSizes) {
  ASSERT_TRUE(fft::fast_kernel()) << "fast kernel must be the default";
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    const auto input = random_signal(n, 1000 + n);
    fft::FftPlan plan(n);

    auto fast = input;
    const auto fast_ops = plan.forward(fast);

    fft::set_fast_kernel(false);
    auto ref = input;
    const auto ref_ops = plan.forward(ref);
    fft::set_fast_kernel(true);

    EXPECT_TRUE(bit_identical(fast, ref)) << "n=" << n;
    EXPECT_EQ(fast_ops.butterflies, ref_ops.butterflies) << "n=" << n;
    EXPECT_EQ(fast_ops.real_mults, ref_ops.real_mults) << "n=" << n;
    EXPECT_EQ(fast_ops.real_adds, ref_ops.real_adds) << "n=" << n;
  }
}

TEST(FftFastKernel, InverseBitIdenticalToReference) {
  for (std::size_t n : {8u, 64u, 1024u}) {
    const auto input = random_signal(n, 2000 + n);
    fft::FftPlan plan(n);

    auto fast = input;
    plan.inverse(fast);

    fft::set_fast_kernel(false);
    auto ref = input;
    plan.inverse(ref);
    fft::set_fast_kernel(true);

    EXPECT_TRUE(bit_identical(fast, ref)) << "n=" << n;
  }
}

TEST(FftFastKernel, BlockedForwardBitIdenticalToReference) {
  const std::size_t n = 1024;
  const auto input = random_signal(n, 31);
  fft::FftPlan plan(n);
  for (std::size_t k : {1u, 4u, 16u}) {
    auto fast = input;
    plan.forward_blocked(fast, k);

    fft::set_fast_kernel(false);
    auto ref = input;
    plan.forward_blocked(ref, k);
    fft::set_fast_kernel(true);

    EXPECT_TRUE(bit_identical(fast, ref)) << "k=" << k;
  }
}

TEST(FftFastKernel, RunStagesReferenceMatchesToggledDispatch) {
  // The public reference entry point is the same code the toggle selects.
  const std::size_t n = 256;
  const auto input = random_signal(n, 77);
  fft::FftPlan plan(n);

  auto via_toggle = input;
  fft::set_fast_kernel(false);
  plan.forward(via_toggle);
  fft::set_fast_kernel(true);

  auto fast = input;
  plan.forward(fast);
  EXPECT_TRUE(bit_identical(fast, via_toggle));
}

// --- reliability: batched codec vs per-word reference ------------------

TEST(ReliabilityBatch, Crc32SliceBy8MatchesBytewise) {
  Rng rng(5);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // All lengths 0..257 plus odd offsets: every tail/alignment path.
  for (std::size_t len = 0; len <= 257; ++len) {
    for (std::size_t off : {0u, 1u, 3u, 7u}) {
      const std::uint32_t fast =
          reliability::crc32_update(reliability::kCrc32Init, buf.data() + off,
                                    len);
      const std::uint32_t ref = reliability::crc32_update_reference(
          reliability::kCrc32Init, buf.data() + off, len);
      ASSERT_EQ(fast, ref) << "len=" << len << " off=" << off;
    }
  }
  // Chained updates must agree too (CRC is stateful across blocks).
  std::uint32_t fast = reliability::kCrc32Init;
  std::uint32_t ref = reliability::kCrc32Init;
  for (std::size_t off = 0; off < 4096; off += 123) {
    const std::size_t len = std::min<std::size_t>(123, 4096 - off);
    fast = reliability::crc32_update(fast, buf.data() + off, len);
    ref = reliability::crc32_update_reference(ref, buf.data() + off, len);
  }
  EXPECT_EQ(reliability::crc32_finalize(fast),
            reliability::crc32_finalize(ref));
}

TEST(ReliabilityBatch, SecdedWordBatchMatchesPerWord) {
  Rng rng(6);
  const std::size_t kCount = 512;
  std::vector<std::uint64_t> data(kCount);
  for (auto& w : data) w = rng.next_u64();

  std::vector<std::uint8_t> batch_checks(kCount);
  reliability::secded_encode_words(data.data(), kCount, batch_checks.data());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(batch_checks[i], reliability::secded_encode(data[i])) << i;
  }

  // Corrupt a mix: clean words, single data-bit flips, check-bit flips,
  // and double errors.
  std::vector<std::uint64_t> rx = data;
  std::vector<std::uint8_t> rx_checks = batch_checks;
  for (std::size_t i = 0; i < kCount; ++i) {
    switch (i % 5) {
      case 1: rx[i] ^= std::uint64_t{1} << (i % 64); break;
      case 2: rx_checks[i] ^= static_cast<std::uint8_t>(1U << (i % 8)); break;
      case 3:
        rx[i] ^= (std::uint64_t{1} << (i % 64)) |
                 (std::uint64_t{1} << ((i + 17) % 64));
        break;
      default: break;  // clean
    }
  }

  for (bool correct : {true, false}) {
    std::vector<std::uint64_t> batch_out(kCount);
    reliability::SecdedWordStats stats;
    reliability::secded_decode_words(rx.data(), rx_checks.data(), kCount,
                                     correct, batch_out.data(), &stats);
    reliability::SecdedWordStats ref_stats;
    for (std::size_t i = 0; i < kCount; ++i) {
      const auto res = reliability::secded_decode(rx[i], rx_checks[i]);
      const std::uint64_t want = correct ? res.data : rx[i];
      ASSERT_EQ(batch_out[i], want) << "word " << i;
      if (!res.clean()) ++ref_stats.flagged_words;
      if (res.double_error()) ++ref_stats.double_errors;
      if (correct && res.status == reliability::SecdedStatus::kCorrectedData) {
        ++ref_stats.corrected_bits;
      }
    }
    EXPECT_EQ(stats.flagged_words, ref_stats.flagged_words);
    EXPECT_EQ(stats.double_errors, ref_stats.double_errors);
    EXPECT_EQ(stats.corrected_bits, ref_stats.corrected_bits);
  }
}

TEST(ReliabilityBatch, FramingMatchesReferenceCleanAndCorrupted) {
  Rng rng(8);
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u}) {
    std::vector<std::uint64_t> payload(n);
    for (auto& w : payload) w = rng.next_u64();

    std::vector<std::uint64_t> wire, wire_ref;
    reliability::encode_block(payload.data(), n, &wire);
    reliability::encode_block_reference(payload.data(), n, &wire_ref);
    ASSERT_EQ(wire, wire_ref) << "n=" << n;

    // Clean decode.
    auto check_decode = [&](const std::vector<std::uint64_t>& rx) {
      for (bool correct : {true, false}) {
        const auto fast = reliability::decode_block(rx.data(), n, correct);
        const auto ref =
            reliability::decode_block_reference(rx.data(), n, correct);
        ASSERT_EQ(fast.payload, ref.payload);
        ASSERT_EQ(fast.corrected_bits, ref.corrected_bits);
        ASSERT_EQ(fast.double_errors, ref.double_errors);
        ASSERT_EQ(fast.flagged_words, ref.flagged_words);
        ASSERT_EQ(fast.crc_ok, ref.crc_ok);
        // decode_block_into with a dirty, reused output buffer.
        reliability::BlockDecode into;
        into.payload.assign(99, 0xdeadbeef);
        into.corrected_bits = 123;
        reliability::decode_block_into(rx.data(), n, correct, &into);
        ASSERT_EQ(into.payload, ref.payload);
        ASSERT_EQ(into.corrected_bits, ref.corrected_bits);
        ASSERT_EQ(into.double_errors, ref.double_errors);
        ASSERT_EQ(into.flagged_words, ref.flagged_words);
        ASSERT_EQ(into.crc_ok, ref.crc_ok);
      }
    };
    check_decode(wire);

    // Single-bit, double-bit, and CRC-slot corruption.
    auto rx = wire;
    rx[0] ^= 1;
    check_decode(rx);
    rx = wire;
    rx[n / 2] ^= 0b101;
    check_decode(rx);
    rx = wire;
    rx[n] ^= std::uint64_t{1} << 40;  // CRC word
    check_decode(rx);
    rx = wire;
    rx.back() ^= std::uint64_t{1} << 63;  // packed check slot
    check_decode(rx);
  }
}

TEST(ReliabilityBatch, CorruptWordsMatchesPerWordStream) {
  for (double ber : {0.0, 1e-6, 1e-3, 0.05}) {
    for (bool dead_lane : {false, true}) {
      reliability::FaultModel model;
      model.random_ber = ber;
      model.seed = 42;
      if (dead_lane) model.dead_wavelengths = {5, 40};

      Rng rng(9);
      std::vector<std::uint64_t> in(2048);
      for (auto& w : in) w = rng.next_u64();

      reliability::FaultStream batch_stream(model);
      reliability::FaultStream word_stream(model);
      std::vector<std::uint64_t> batch_out(in.size());
      std::vector<std::uint64_t> word_out(in.size());
      reliability::FaultReport batch_rep, word_rep;

      // Mixed call sizes so batching straddles bulk-copy boundaries.
      std::size_t off = 0;
      const std::size_t sizes[] = {1, 3, 64, 500, 1000, 480};
      for (std::size_t s : sizes) {
        batch_stream.corrupt_words(in.data() + off, batch_out.data() + off, s,
                                   &batch_rep);
        off += s;
      }
      ASSERT_EQ(off, in.size());
      for (std::size_t i = 0; i < in.size(); ++i) {
        word_out[i] = word_stream.corrupt(in[i], &word_rep);
      }

      ASSERT_EQ(batch_out, word_out) << "ber=" << ber;
      EXPECT_EQ(batch_rep.words_total, word_rep.words_total);
      EXPECT_EQ(batch_rep.words_corrupted, word_rep.words_corrupted);
      EXPECT_EQ(batch_rep.bits_flipped, word_rep.bits_flipped);
      EXPECT_EQ(batch_rep.bits_silenced, word_rep.bits_silenced);

      // In-place corruption (out == in) must give the same answer.
      reliability::FaultStream inplace_stream(model);
      std::vector<std::uint64_t> inplace = in;
      inplace_stream.corrupt_words(inplace.data(), inplace.data(),
                                   inplace.size(), nullptr);
      EXPECT_EQ(inplace, word_out) << "ber=" << ber;
    }
  }
}

// --- driver: reports byte-identical fast vs reference ------------------

TEST(DriverEquivalence, SweepJsonByteIdenticalFastVsReferenceKernel) {
  driver::ExperimentSpec spec;
  spec.workload = "fft2d";
  spec.machine.processors = 4;
  spec.machine.matrix_rows = 16;
  spec.machine.matrix_cols = 16;
  spec.with_mesh = true;
  spec.mesh.matrix_rows = 16;  // mesh baseline runs the same matrix
  spec.mesh.matrix_cols = 16;
  spec.mesh.elements_per_packet = 8;  // 16 elements/node must fill packets
  spec.axes.push_back({"blocks", {1, 2, 4}});

  const auto fast = driver::Runner::run(spec);
  fft::set_fast_kernel(false);
  const auto ref = driver::Runner::run(spec);
  fft::set_fast_kernel(true);

  EXPECT_EQ(driver::sweep_json(fast), driver::sweep_json(ref));
  EXPECT_EQ(driver::sweep_csv(fast), driver::sweep_csv(ref));
}

}  // namespace
}  // namespace psync
