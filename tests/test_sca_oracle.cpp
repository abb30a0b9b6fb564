// Differential equivalence of the production SCA datapath (ScaEngine's
// slot-placed gather and hoisted-clock scatter, CommProgram's run merge)
// against the test oracles (oracle::gather_reference / scatter_reference,
// the original record-and-sort gather and per-slot scatter; expand-and-sort
// for the CP entries). Seeded random schedules are run through both and
// every field must match exactly: the terminus stream record by record,
// the collision list, gap-freeness, utilization bit for bit, span and
// first arrival; the deliveries, per-node received words, unclaimed slots
// and span of a scatter; and, where one side throws, the other throws the
// same message. The schedules cover zero skew, per-node skew that keeps
// arrival order and skew that reorders it, holes in the slot range,
// double-driven slots with strict = false, and negative slot bases (a CP
// stride counting downwards past slot 0, under a negative launch time).
#include "psync/core/sca.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/segmented.hpp"
#include "psync/oracle/reference_sca.hpp"

namespace psync::core {
namespace {

enum class Skew { kNone, kOrderKeeping, kReordering };

/// Per-node timing error: none; within half a slot period (consecutive
/// slots can never swap); or up to three periods either way.
std::vector<TimePs> make_skew(Skew kind, std::size_t nodes, TimePs period,
                              Rng& rng) {
  if (kind == Skew::kNone) return {};
  const TimePs bound = kind == Skew::kOrderKeeping ? period / 2 : 3 * period;
  std::vector<TimePs> skew(nodes);
  for (auto& s : skew) s = rng.next_range(-bound, bound);
  return skew;
}

ScaEngine make_engine(std::size_t nodes, std::vector<TimePs> skew,
                      TimePs launch_ps = 0) {
  photonic::ClockParams clock;
  clock.launch_time_ps = launch_ps;
  PscanTopology topo = straight_bus_topology(nodes, 8.0, clock);
  topo.skew_error_ps = std::move(skew);
  return ScaEngine(topo);
}

/// Random drive or listen schedule over slots [base, base + span): each
/// slot goes to one node, or (with the given odds) to nobody or to two
/// nodes. A node's slots are written as one burst per contiguous run, so
/// a node's CP holds many strides.
CpSchedule random_schedule(std::size_t nodes, Slot base, Slot span,
                           double hole_p, double double_p, CpAction action,
                           Rng& rng) {
  std::vector<std::vector<Slot>> slots(nodes);
  for (Slot s = base; s < base + span; ++s) {
    if (rng.next_bool(hole_p)) continue;
    const auto a = static_cast<std::size_t>(rng.next_below(nodes));
    slots[a].push_back(s);
    if (nodes > 1 && rng.next_bool(double_p)) {
      const auto b = (a + 1 + rng.next_below(nodes - 1)) % nodes;
      slots[b].push_back(s);
    }
  }
  CpSchedule sched;
  sched.total_slots = base + span;
  sched.node_cps.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::sort(slots[i].begin(), slots[i].end());
    std::vector<CpStride> strides;
    for (std::size_t k = 0; k < slots[i].size();) {
      std::size_t run = 1;
      while (k + run < slots[i].size() &&
             slots[i][k + run] == slots[i][k] + static_cast<Slot>(run)) {
        ++run;
      }
      const auto len = static_cast<Slot>(run);
      strides.push_back(CpStride{slots[i][k], len, len, 1, action});
      k += run;
    }
    // Program order is not slot order: the entries merge must sort it.
    rng.shuffle(strides);
    sched.node_cps[i] = CommProgram(std::move(strides));
  }
  return sched;
}

/// Interleaved drive schedule counting downwards: node i drives slots
/// top + i, top + i - P, ..., so most slots are negative. CommProgram::add
/// rejects a negative stride, so the strides are handed to the
/// constructor.
CpSchedule descending_schedule(std::size_t nodes, Slot top, Slot count) {
  CpSchedule sched;
  sched.total_slots = top + static_cast<Slot>(nodes);
  sched.node_cps.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    sched.node_cps[i] = CommProgram({CpStride{top + static_cast<Slot>(i), 1,
                                              -static_cast<Slot>(nodes), count,
                                              CpAction::kDrive}});
  }
  return sched;
}

std::vector<std::vector<Word>> random_data(const CpSchedule& sched, Rng& rng,
                                           bool spare_words) {
  std::vector<std::vector<Word>> data(sched.nodes());
  for (std::size_t i = 0; i < sched.nodes(); ++i) {
    const Slot n = sched.node_cps[i].slot_count(CpAction::kDrive);
    const std::size_t extra = spare_words ? rng.next_below(3) : 0;
    data[i].resize(static_cast<std::size_t>(n) + extra);
    for (auto& w : data[i]) w = rng.next_u64();
  }
  return data;
}

template <typename Fn>
auto outcome(Fn fn) -> std::pair<std::optional<decltype(fn())>, std::string> {
  try {
    return {fn(), ""};
  } catch (const SimulationError& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same(const GatherResult& got, const GatherResult& want) {
  ASSERT_EQ(got.stream.size(), want.stream.size());
  for (std::size_t k = 0; k < want.stream.size(); ++k) {
    const SlotRecord& a = got.stream[k];
    const SlotRecord& b = want.stream[k];
    ASSERT_EQ(a.slot, b.slot) << "record " << k;
    ASSERT_EQ(a.word, b.word) << "record " << k;
    ASSERT_EQ(a.source, b.source) << "record " << k;
    ASSERT_EQ(a.arrival_ps, b.arrival_ps) << "record " << k;
    ASSERT_EQ(a.modulated_ps, b.modulated_ps) << "record " << k;
  }
  ASSERT_EQ(got.collisions.size(), want.collisions.size());
  for (std::size_t k = 0; k < want.collisions.size(); ++k) {
    const Collision& a = got.collisions[k];
    const Collision& b = want.collisions[k];
    EXPECT_EQ(a.node_a, b.node_a);
    EXPECT_EQ(a.node_b, b.node_b);
    EXPECT_EQ(a.slot_a, b.slot_a);
    EXPECT_EQ(a.slot_b, b.slot_b);
    EXPECT_EQ(a.overlap_ps, b.overlap_ps);
  }
  EXPECT_EQ(got.gap_free, want.gap_free);
  EXPECT_EQ(got.utilization, want.utilization);  // bit for bit
  EXPECT_EQ(got.span_ps, want.span_ps);
  EXPECT_EQ(got.first_arrival_ps, want.first_arrival_ps);
}

void expect_same(const ScatterResult& got, const ScatterResult& want) {
  ASSERT_EQ(got.deliveries.size(), want.deliveries.size());
  for (std::size_t k = 0; k < want.deliveries.size(); ++k) {
    const DeliveryRecord& a = got.deliveries[k];
    const DeliveryRecord& b = want.deliveries[k];
    ASSERT_EQ(a.slot, b.slot) << "delivery " << k;
    ASSERT_EQ(a.word, b.word) << "delivery " << k;
    ASSERT_EQ(a.node, b.node) << "delivery " << k;
    ASSERT_EQ(a.element, b.element) << "delivery " << k;
    ASSERT_EQ(a.arrival_ps, b.arrival_ps) << "delivery " << k;
  }
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.unclaimed_slots, want.unclaimed_slots);
  EXPECT_EQ(got.span_ps, want.span_ps);
}

/// Runs the gather through the engine and the oracle; returns the oracle's
/// result (nullopt when both threw the same error).
std::optional<GatherResult> check_gather(
    const ScaEngine& engine, const CpSchedule& sched,
    const std::vector<std::vector<Word>>& data, bool strict) {
  const auto got = outcome([&] { return engine.gather(sched, data, strict); });
  const auto want = outcome(
      [&] { return oracle::gather_reference(engine, sched, data, strict); });
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(got.first.has_value(), want.first.has_value());
  if (got.first && want.first) expect_same(*got.first, *want.first);
  return want.first;
}

TEST(ScaOracle, GatherMatchesOracleOnRandomSchedules) {
  int reordered = 0;
  int collided = 0;
  int holed = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const auto skew_kind = static_cast<Skew>(seed % 3);
    const std::size_t nodes = 1 + rng.next_below(12);
    const Slot base = static_cast<Slot>(rng.next_below(2000));
    const Slot span = 1 + static_cast<Slot>(rng.next_below(400));
    // A third of the seeds tile their range exactly; the rest leave holes
    // and drive some slots twice.
    const bool clean = (seed / 3) % 3 == 0;
    const double hole_p = clean ? 0.0 : 0.05;
    const double double_p = clean ? 0.0 : 0.03;
    const auto sched = random_schedule(nodes, base, span, hole_p, double_p,
                                       CpAction::kDrive, rng);
    const ScaEngine engine =
        make_engine(nodes, make_skew(skew_kind, nodes, 100, rng));
    const bool strict = clean && skew_kind != Skew::kReordering;
    const auto data = random_data(sched, rng, /*spare_words=*/!strict);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto want = check_gather(engine, sched, data, strict);
    if (want) {
      const auto& s = want->stream;
      reordered += !std::is_sorted(s.begin(), s.end(),
                                   [](const SlotRecord& a, const SlotRecord& b) {
                                     return a.slot < b.slot;
                                   });
      collided += !want->collisions.empty();
      holed += !want->gap_free;
    }
  }
  // The seeds reach every branch: arrival order that is not slot order,
  // collisions, and gapped streams.
  EXPECT_GT(reordered, 5);
  EXPECT_GT(collided, 5);
  EXPECT_GT(holed, 5);
}

TEST(ScaOracle, GatherMatchesOracleOnCompiledPatterns) {
  const std::size_t nodes = 16;
  for (const Skew kind : {Skew::kNone, Skew::kOrderKeeping, Skew::kReordering}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 31 + static_cast<std::uint64_t>(kind));
      const ScaEngine engine =
          make_engine(nodes, make_skew(kind, nodes, 100, rng));
      for (const auto& sched :
           {compile_gather_blocks(nodes, 24),
            compile_gather_interleaved(nodes, 24),
            compile_gather_round_robin(nodes, 4, 6),
            compile_gather_transpose(nodes, 3, 20)}) {
        const auto data = random_data(sched, rng, false);
        check_gather(engine, sched, data, /*strict=*/false);
        check_gather(engine, sched, data, /*strict=*/kind != Skew::kReordering);
      }
    }
  }
}

TEST(ScaOracle, GatherMatchesOracleOnNegativeSlotBases) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const auto kind = static_cast<Skew>(seed % 3);
    const std::size_t nodes = 2 + rng.next_below(8);
    const Slot count = 1 + static_cast<Slot>(rng.next_below(60));
    const Slot top = static_cast<Slot>(rng.next_below(40));
    auto sched = descending_schedule(nodes, top, count);
    if (seed % 4 == 0) {
      // Drop one node's CP: a hole every P slots.
      sched.node_cps[rng.next_below(nodes)] = CommProgram();
    }
    const ScaEngine engine = make_engine(
        nodes, make_skew(kind, nodes, 100, rng), /*launch_ps=*/-1'000'000);
    const auto data = random_data(sched, rng, false);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto want = check_gather(engine, sched, data, /*strict=*/false);
    ASSERT_TRUE(want.has_value());
    if (count * static_cast<Slot>(nodes) > top + static_cast<Slot>(nodes)) {
      EXPECT_LT(want->stream.front().slot, 0);
    }
  }
}

TEST(ScaOracle, StrictGatherErrorsMatchOracle) {
  Rng rng(7);
  const ScaEngine engine = make_engine(4, {});
  auto sched = compile_gather_interleaved(4, 8);
  auto data = random_data(sched, rng, false);
  // Too few words, too many words, and a double-driven slot.
  auto short_data = data;
  short_data[2].pop_back();
  EXPECT_FALSE(check_gather(engine, sched, short_data, true).has_value());
  auto long_data = data;
  long_data[1].push_back(1);
  EXPECT_FALSE(check_gather(engine, sched, long_data, true).has_value());
  sched.node_cps[3] = CommProgram({CpStride{0, 1, 4, 8, CpAction::kDrive}});
  EXPECT_FALSE(check_gather(engine, sched, data, true).has_value());
  EXPECT_TRUE(check_gather(engine, sched, data, false).has_value());
}

TEST(ScaOracle, SegmentedEngineWithoutRepeatersMatchesOracle) {
  // With no repeater the segmented engine's gather is the plain engine's:
  // both now run the one shared datapath.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t nodes = 1 + rng.next_below(10);
    const SegmentedBusTopology seg = segmented_bus_topology(nodes, 1, 8.0);
    PscanTopology plain;
    plain.clock = seg.clock;
    plain.node_pos_um = seg.node_pos_um;
    plain.terminus_um = seg.terminus_um;
    const ScaEngine engine(plain);
    const SegmentedScaEngine segmented(seg);
    const auto sched =
        random_schedule(nodes, static_cast<Slot>(rng.next_below(100)), 200,
                        seed % 2 ? 0.05 : 0.0, seed % 2 ? 0.03 : 0.0,
                        CpAction::kDrive, rng);
    const auto data = random_data(sched, rng, true);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same(segmented.gather(sched, data, false),
                oracle::gather_reference(engine, sched, data, false));
  }
}

TEST(ScaOracle, ScatterMatchesOracleOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const auto kind = static_cast<Skew>(seed % 3);
    const std::size_t nodes = 1 + rng.next_below(12);
    const Slot span = 1 + static_cast<Slot>(rng.next_below(400));
    // Listen CPs cannot double-claim a slot; holes are unclaimed slots.
    const double hole_p = seed % 2 ? 0.05 : 0.0;
    const auto sched =
        random_schedule(nodes, 0, span, hole_p, 0.0, CpAction::kListen, rng);
    const ScaEngine engine =
        make_engine(nodes, make_skew(kind, nodes, 100, rng), -5000);
    std::vector<Word> burst(static_cast<std::size_t>(span));
    for (auto& w : burst) w = rng.next_u64();
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const bool strict : {false, true}) {
      const auto got =
          outcome([&] { return engine.scatter(sched, burst, strict); });
      const auto want = outcome([&] {
        return oracle::scatter_reference(engine, sched, burst, strict);
      });
      EXPECT_EQ(got.second, want.second);
      ASSERT_EQ(got.first.has_value(), want.first.has_value());
      if (want.first) expect_same(*got.first, *want.first);
    }
  }
}

TEST(ScaOracle, ScatterErrorsMatchOracle) {
  const ScaEngine engine = make_engine(3, {});
  const std::vector<Word> burst(12, 5);
  auto twice = compile_scatter_blocks(3, 4);
  twice.node_cps[2] = CommProgram({CpStride{2, 4, 4, 1, CpAction::kListen}});
  auto beyond = compile_scatter_blocks(3, 4);
  beyond.node_cps[1] = CommProgram({CpStride{10, 4, 4, 1, CpAction::kListen}});
  for (const auto& sched : {twice, beyond}) {
    const auto got = outcome([&] { return engine.scatter(sched, burst); });
    const auto want = outcome(
        [&] { return oracle::scatter_reference(engine, sched, burst); });
    EXPECT_FALSE(got.first.has_value());
    EXPECT_EQ(got.second, want.second);
  }
}

/// The oracle of CommProgram::entries(): expand every stride, sort by begin
/// slot, reject overlaps.
std::vector<CpEntry> entries_reference(const CommProgram& cp) {
  std::vector<CpEntry> out;
  for (const auto& s : cp.strides()) {
    const auto e = s.expand();
    out.insert(out.end(), e.begin(), e.end());
  }
  std::sort(out.begin(), out.end(),
            [](const CpEntry& a, const CpEntry& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].begin < out[i - 1].end()) {
      throw SimulationError("CommProgram: entries overlap at slot " +
                            std::to_string(out[i].begin));
    }
  }
  return out;
}

TEST(ScaOracle, EntriesMergeMatchesExpandAndSort) {
  int overlapping = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::vector<CpStride> strides(1 + rng.next_below(6));
    for (auto& s : strides) {
      s.first = static_cast<Slot>(rng.next_below(500));
      s.burst = 1 + static_cast<Slot>(rng.next_below(4));
      s.count = 1 + static_cast<Slot>(rng.next_below(20));
      // Mostly well-formed runs; some strides below the burst, zero or
      // negative, which the merge must hand to the sort.
      s.stride = seed % 5 == 0 ? static_cast<Slot>(rng.next_range(-8, 3))
                               : s.burst + static_cast<Slot>(rng.next_below(40));
      s.action = rng.next_bool() ? CpAction::kDrive : CpAction::kListen;
    }
    const CommProgram cp(strides);
    const auto got = outcome([&] { return cp.entries(); });
    const auto want = outcome([&] { return entries_reference(cp); });
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(got.second, want.second);
    ASSERT_EQ(got.first.has_value(), want.first.has_value());
    overlapping += !want.first.has_value();
    if (!want.first) continue;
    ASSERT_EQ(got.first->size(), want.first->size());
    for (std::size_t k = 0; k < want.first->size(); ++k) {
      EXPECT_EQ((*got.first)[k].begin, (*want.first)[k].begin);
      EXPECT_EQ((*got.first)[k].length, (*want.first)[k].length);
      EXPECT_EQ((*got.first)[k].action, (*want.first)[k].action);
    }
  }
  EXPECT_GT(overlapping, 10);
  EXPECT_LT(overlapping, 290);
}

}  // namespace
}  // namespace psync::core
