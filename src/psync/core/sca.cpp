#include "psync/core/sca.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "psync/common/check.hpp"

namespace psync::core {

void PscanTopology::validate() const {
  if (node_pos_um.empty()) {
    throw SimulationError("PscanTopology: no nodes");
  }
  for (std::size_t i = 0; i < node_pos_um.size(); ++i) {
    if (node_pos_um[i] < 0.0) {
      throw SimulationError("PscanTopology: negative node position");
    }
    if (i > 0 && node_pos_um[i] <= node_pos_um[i - 1]) {
      throw SimulationError(
          "PscanTopology: node positions must strictly increase downstream");
    }
  }
  if (terminus_um < node_pos_um.back()) {
    throw SimulationError("PscanTopology: terminus upstream of last node");
  }
  if (head_um > node_pos_um.front()) {
    throw SimulationError("PscanTopology: head downstream of first node");
  }
  if (!skew_error_ps.empty() && skew_error_ps.size() != node_pos_um.size()) {
    throw SimulationError("PscanTopology: skew_error size mismatch");
  }
}

std::vector<Word> GatherResult::words() const {
  std::vector<Word> out;
  out.reserve(stream.size());
  for (const auto& r : stream) out.push_back(r.word);
  return out;
}

ScaEngine::ScaEngine(PscanTopology topology)
    : topo_(std::move(topology)), clock_(topo_.clock) {
  topo_.validate();
  check_budget();
}

void ScaEngine::check_budget() const {
  if (!topo_.budget.has_value()) return;
  const auto& budget = *topo_.budget;
  // The worst-case optical path: full bus length with every node's detuned
  // ring in the way. Approximate ring count with the node count (Eq. 2-3).
  photonic::LinkBudgetParams p = budget;
  const double length_cm = units::um_to_cm(topo_.terminus_um - topo_.head_um);
  const double n = static_cast<double>(topo_.nodes());
  p.modulator_pitch_cm = n > 0 ? length_cm / n : length_cm;
  if (photonic::max_segments(p) < topo_.nodes()) {
    throw SimulationError(
        "PSCAN link budget does not close for " +
        std::to_string(topo_.nodes()) + " nodes over " +
        std::to_string(length_cm) + " cm (Eq. 3 bound: " +
        std::to_string(photonic::max_segments(p)) + "); add repeaters");
  }
}

TimePs ScaEngine::slot_arrival_ps(Slot s) const {
  // launch + s*T + flight(terminus) + detect latency.
  return clock_.perceived_edge_ps(topo_.terminus_um, s);
}

namespace {

/// Lowest and highest slot any drive stride of `schedule` claims, and the
/// number of slots the strides claim in total, read off the strides
/// without expanding them. Throws when a stride's extent leaves the Slot
/// range.
struct DriveExtent {
  Slot lo = std::numeric_limits<Slot>::max();
  Slot hi = std::numeric_limits<Slot>::min();
  std::uint64_t slots = 0;
};

DriveExtent drive_extent(const CpSchedule& schedule, const char* who) {
  DriveExtent x;
  for (const CommProgram& cp : schedule.node_cps) {
    for (const CpStride& s : cp.strides()) {
      if (s.action != CpAction::kDrive || s.burst <= 0 || s.count <= 0) {
        continue;
      }
      Slot reach = 0;  // offset of the last burst from the first
      Slot first = 0;
      Slot last = 0;
      if (__builtin_mul_overflow(s.count - 1, s.stride, &reach) ||
          __builtin_add_overflow(s.first, std::min<Slot>(reach, 0), &first) ||
          __builtin_add_overflow(s.first, std::max<Slot>(reach, 0), &last) ||
          __builtin_add_overflow(last, s.burst - 1, &last)) {
        throw SimulationError(std::string(who) +
                              ": CP slot range overflows the slot counter");
      }
      x.lo = std::min(x.lo, first);
      x.hi = std::max(x.hi, last);
      x.slots += static_cast<std::uint64_t>(s.burst) *
                 static_cast<std::uint64_t>(s.count);
    }
  }
  return x;
}

/// base + s * period, or false when it leaves the picosecond range.
bool slot_time_fits(Slot s, TimePs base, TimePs period) {
  TimePs t = 0;
  return !__builtin_mul_overflow(s, period, &t) &&
         !__builtin_add_overflow(t, base, &t);
}

/// The terminus scan, fed the stream one record at a time in arrival
/// order. Collisions: each slot occupies [arrival, arrival + period) at the
/// terminus; overlap between records from different nodes is a collision.
/// Gap-free: consecutive leading edges exactly one period apart.
struct TerminusScan {
  TimePs period = 0;
  std::vector<Collision>* collisions = nullptr;
  const std::string* who = nullptr;
  SlotRecord prev{};
  bool started = false;
  bool gap_free = true;
  TimePs first_mod = 0;

  void add(const SlotRecord& b) {
    if (!started) {
      started = true;
      first_mod = b.modulated_ps;
      prev = b;
      return;
    }
    const SlotRecord& a = prev;
    first_mod = std::min(first_mod, b.modulated_ps);
    gap_free = gap_free && b.arrival_ps - a.arrival_ps == period;
    const TimePs overlap = (a.arrival_ps + period) - b.arrival_ps;
    if (overlap > 0 && a.source != b.source) {
      collisions->push_back(
          Collision{a.source, b.source, a.slot, b.slot, overlap});
    } else if (overlap > 0 && a.source == b.source && a.slot == b.slot) {
      throw SimulationError(*who + ": node drives the same slot twice");
    }
    prev = b;
  }
};

const GatherErrors kGatherErrors{
    "gather",
    [](std::size_t node, std::size_t words, std::size_t slots) {
      return "gather: node " + std::to_string(node) + " has " +
             std::to_string(words) + " words but CP drives " +
             std::to_string(slots) + " slots";
    },
    [](const Collision& c) {
      return "gather: waveguide collision between node " +
             std::to_string(c.node_a) + " (slot " + std::to_string(c.slot_a) +
             ") and node " + std::to_string(c.node_b) + " (slot " +
             std::to_string(c.slot_b) + "), overlap " +
             std::to_string(c.overlap_ps) + " ps";
    }};

}  // namespace

GatherResult run_gather(const CpSchedule& schedule,
                        const std::vector<std::vector<Word>>& node_data,
                        const GatherClock& clock, const GatherErrors& errors,
                        bool strict) {
  const std::string who = errors.who;
  const TimePs period = clock.period_ps;
  const std::size_t nodes = node_data.size();
  PSYNC_CHECK(schedule.nodes() == nodes);
  PSYNC_CHECK(clock.modulated_base_ps.size() == nodes);
  PSYNC_CHECK(clock.arrival_base_ps.size() == nodes);

  const DriveExtent extent = drive_extent(schedule, errors.who);
  std::size_t words = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    words += node_data[i].size();
    if (extent.slots == 0) continue;
    for (const TimePs base :
         {clock.modulated_base_ps[i], clock.arrival_base_ps[i]}) {
      if (!slot_time_fits(extent.lo, base, period) ||
          !slot_time_fits(extent.hi, base, period)) {
        throw SimulationError(who +
                              ": CP slot range overflows the picosecond clock");
      }
    }
  }
  // Place by slot when the driven slots can tile [lo, hi] exactly once. A
  // span wider than the slot count (holes, or a double-driven slot) keeps
  // the oracle's node-order build and sort; so does a count beyond the
  // words on hand, which the build rejects anyway. The placement buffer is
  // never sized by the span.
  const bool tiles = extent.slots > 0 && extent.slots <= words &&
                     static_cast<std::uint64_t>(extent.hi) -
                             static_cast<std::uint64_t>(extent.lo) + 1 ==
                         extent.slots;

  // Node i's CP entries, checked against its data.
  const auto drive_entries = [&](std::size_t i) {
    std::vector<CpEntry> entries = schedule.node_cps[i].entries();
    std::size_t driven = 0;
    for (const CpEntry& e : entries) {
      if (e.action == CpAction::kDrive) {
        driven += static_cast<std::size_t>(e.length);
      }
    }
    const std::size_t have = node_data[i].size();
    if (driven > have) {
      throw SimulationError(who + ": node " + std::to_string(i) +
                            " CP drives more slots than it has data");
    }
    if (strict && driven != have) {
      throw SimulationError(errors.size_mismatch(i, have, driven));
    }
    return entries;
  };
  const auto record = [&](Slot s, std::size_t i, std::size_t element) {
    const TimePs t = s * period;
    return SlotRecord{s, node_data[i][element], static_cast<std::int32_t>(i),
                      clock.arrival_base_ps[i] + t,
                      clock.modulated_base_ps[i] + t};
  };

  GatherResult out;
  TerminusScan scan{period, &out.collisions, &who};
  // Placed records come out in slot order, which is arrival order when
  // the nodes' arrival bases lie within one slot period of each other (no
  // skew, or a small one): the scan then runs as they are built.
  const auto [base_lo, base_hi] = std::minmax_element(
      clock.arrival_base_ps.begin(), clock.arrival_base_ps.end());
  const bool slot_ordered = nodes > 0 && *base_hi - *base_lo <= period;

  // Placement: the driving node of each slot goes to owner[slot - lo];
  // a slot found taken means the range does not tile after all.
  bool placed = tiles;
  std::vector<std::int32_t> owner;
  if (placed) owner.assign(static_cast<std::size_t>(extent.slots), -1);
  for (std::size_t i = 0; i < nodes && placed; ++i) {
    for (const CpEntry& e : drive_entries(i)) {
      if (e.action != CpAction::kDrive) continue;
      for (Slot s = e.begin; s < e.end() && placed; ++s) {
        std::int32_t& o = owner[static_cast<std::size_t>(s - extent.lo)];
        placed = o < 0;
        o = static_cast<std::int32_t>(i);
      }
    }
  }
  const bool scanned = placed && slot_ordered;
  if (placed) {
    // Records in slot order; a node's words go out in its slot order.
    out.stream.reserve(owner.size());
    std::vector<std::size_t> next_element(nodes, 0);
    for (std::size_t k = 0; k < owner.size(); ++k) {
      const auto i = static_cast<std::size_t>(owner[k]);
      const SlotRecord rec =
          record(extent.lo + static_cast<Slot>(k), i, next_element[i]++);
      if (scanned) scan.add(rec);
      out.stream.push_back(rec);
    }
  } else {
    // The oracle's build: records in node order (checks rerun from node 0,
    // so errors surface in the same order), sorted below.
    out.stream.reserve(
        std::min<std::size_t>(static_cast<std::size_t>(extent.slots), words));
    for (std::size_t i = 0; i < nodes; ++i) {
      std::size_t element = 0;
      for (const CpEntry& e : drive_entries(i)) {
        if (e.action != CpAction::kDrive) continue;
        for (Slot s = e.begin; s < e.end(); ++s) {
          out.stream.push_back(record(s, i, element++));
        }
      }
    }
  }
  owner = {};
  // Placed records a skew has reordered have unique (arrival, slot) keys,
  // so sorting them gives the oracle's order exactly; the node-order build
  // is sorted as the oracle sorts it, ties included.
  const bool in_order =
      placed && (slot_ordered ||
                 std::is_sorted(out.stream.begin(), out.stream.end(),
                                [](const SlotRecord& a, const SlotRecord& b) {
                                  return a.arrival_ps < b.arrival_ps;
                                }));
  if (!in_order) {
    std::sort(out.stream.begin(), out.stream.end(),
              [](const SlotRecord& a, const SlotRecord& b) {
                if (a.arrival_ps != b.arrival_ps) {
                  return a.arrival_ps < b.arrival_ps;
                }
                return a.slot < b.slot;
              });
  }
  if (!scanned) {
    for (const SlotRecord& r : out.stream) scan.add(r);
  }
  if (strict && !out.collisions.empty()) {
    throw SimulationError(errors.collision(out.collisions.front()));
  }

  const std::vector<SlotRecord>& stream = out.stream;
  if (stream.empty()) return out;
  out.first_arrival_ps = stream.front().arrival_ps;
  out.span_ps = (stream.back().arrival_ps + period) - scan.first_mod;
  out.gap_free = scan.gap_free;
  const TimePs window =
      (stream.back().arrival_ps - stream.front().arrival_ps) + period;
  out.utilization = static_cast<double>(stream.size()) *
                    static_cast<double>(period) / static_cast<double>(window);
  return out;
}

GatherResult ScaEngine::gather(
    const CpSchedule& schedule, const std::vector<std::vector<Word>>& node_data,
    bool strict) const {
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("gather: schedule/topology node count mismatch");
  }
  if (node_data.size() != topo_.nodes()) {
    throw SimulationError("gather: node_data size mismatch");
  }
  // Node i perceives slot s at perceived_edge_ps(x_i, 0) + s*T and its
  // energy then flies on to the terminus: both terms are per node.
  GatherClock clock{clock_.period_ps(), {}, {}};
  clock.modulated_base_ps.reserve(topo_.nodes());
  clock.arrival_base_ps.reserve(topo_.nodes());
  const TimePs terminus = clock_.flight_ps(topo_.terminus_um);
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    const double x = topo_.node_pos_um[i];
    const TimePs fault =
        topo_.skew_error_ps.empty() ? 0 : topo_.skew_error_ps[i];
    const TimePs modulated = clock_.perceived_edge_ps(x, 0) + fault;
    clock.modulated_base_ps.push_back(modulated);
    clock.arrival_base_ps.push_back(modulated +
                                    (terminus - clock_.flight_ps(x)));
  }
  return run_gather(schedule, node_data, clock, kGatherErrors, strict);
}

ScatterResult ScaEngine::scatter(const CpSchedule& schedule,
                                 const std::vector<Word>& burst,
                                 bool strict) const {
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("scatter: schedule/topology node count mismatch");
  }

  ScatterResult out;
  out.received.resize(topo_.nodes());

  // Which node listens on each slot (throws on double-claim).
  std::vector<std::int32_t> owner(burst.size(), -1);
  std::size_t claimed = 0;
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    std::size_t listens = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      for (Slot s = e.begin; s < e.end(); ++s) {
        if (s < 0 || static_cast<std::size_t>(s) >= burst.size()) {
          throw SimulationError("scatter: CP listens beyond the burst");
        }
        auto& o = owner[static_cast<std::size_t>(s)];
        if (o != -1) {
          throw SimulationError("scatter: slot " + std::to_string(s) +
                                " claimed by nodes " + std::to_string(o) +
                                " and " + std::to_string(i));
        }
        o = static_cast<std::int32_t>(i);
        ++listens;
      }
    }
    out.received[i].reserve(listens);
    claimed += listens;
  }
  out.deliveries.reserve(claimed);

  // The word for slot s passes node i's tap at its perceived slot time,
  // perceived_edge_ps(x_i, 0) + skew_i + s*T.
  const TimePs period = clock_.period_ps();
  std::vector<TimePs> edge0(topo_.nodes());
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    edge0[i] = clock_.perceived_edge_ps(topo_.node_pos_um[i], 0) +
               (topo_.skew_error_ps.empty() ? 0 : topo_.skew_error_ps[i]);
  }
  std::vector<std::size_t> next_element(topo_.nodes(), 0);
  TimePs lo = std::numeric_limits<TimePs>::max();
  TimePs hi = std::numeric_limits<TimePs>::min();
  for (std::size_t s = 0; s < burst.size(); ++s) {
    const std::int32_t node = owner[s];
    if (node < 0) {
      out.unclaimed_slots.push_back(static_cast<Slot>(s));
      continue;
    }
    const auto n = static_cast<std::size_t>(node);
    const TimePs at = edge0[n] + static_cast<Slot>(s) * period;
    out.deliveries.push_back(DeliveryRecord{
        static_cast<Slot>(s), burst[s], node,
        static_cast<std::int64_t>(next_element[n]++), at});
    out.received[n].push_back(burst[s]);
    lo = std::min(lo, at);
    hi = std::max(hi, at);
  }

  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("scatter: " +
                          std::to_string(out.unclaimed_slots.size()) +
                          " burst slots have no listener");
  }
  if (!out.deliveries.empty()) out.span_ps = (hi - lo) + period;
  return out;
}

ScatterResult ScaEngine::scatter_multicast(const CpSchedule& schedule,
                                           const std::vector<Word>& burst,
                                           bool strict) const {
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError(
        "scatter_multicast: schedule/topology node count mismatch");
  }
  ScatterResult out;
  out.received.resize(topo_.nodes());
  std::vector<std::uint8_t> claimed(burst.size(), 0);

  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    const TimePs fault =
        topo_.skew_error_ps.empty() ? 0 : topo_.skew_error_ps[i];
    std::int64_t element = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      for (Slot s = e.begin; s < e.end(); ++s, ++element) {
        if (s < 0 || static_cast<std::size_t>(s) >= burst.size()) {
          throw SimulationError("scatter_multicast: CP beyond the burst");
        }
        claimed[static_cast<std::size_t>(s)] = 1;
        DeliveryRecord rec;
        rec.slot = s;
        rec.word = burst[static_cast<std::size_t>(s)];
        rec.node = static_cast<std::int32_t>(i);
        rec.element = element;
        rec.arrival_ps =
            clock_.perceived_edge_ps(topo_.node_pos_um[i], s) + fault;
        out.deliveries.push_back(rec);
        out.received[i].push_back(rec.word);
      }
    }
  }
  for (std::size_t s = 0; s < burst.size(); ++s) {
    if (!claimed[s]) out.unclaimed_slots.push_back(static_cast<Slot>(s));
  }
  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("scatter_multicast: " +
                          std::to_string(out.unclaimed_slots.size()) +
                          " burst slots have no listener");
  }
  std::sort(out.deliveries.begin(), out.deliveries.end(),
            [](const DeliveryRecord& a, const DeliveryRecord& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              return a.node < b.node;
            });
  if (!out.deliveries.empty()) {
    TimePs lo = out.deliveries.front().arrival_ps;
    TimePs hi = lo;
    for (const auto& d : out.deliveries) {
      lo = std::min(lo, d.arrival_ps);
      hi = std::max(hi, d.arrival_ps);
    }
    out.span_ps = (hi - lo) + clock_.period_ps();
  }
  return out;
}

PscanTopology straight_bus_topology(std::size_t nodes, double length_cm,
                                    photonic::ClockParams clock) {
  PSYNC_CHECK(nodes > 0);
  PSYNC_CHECK(length_cm > 0.0);
  PscanTopology topo;
  topo.clock = clock;
  const double len_um = units::cm_to_um(length_cm);
  const double pitch = len_um / static_cast<double>(nodes + 1);
  topo.node_pos_um.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    topo.node_pos_um[i] = pitch * static_cast<double>(i + 1);
  }
  topo.terminus_um = len_um;
  topo.head_um = 0.0;
  return topo;
}

}  // namespace psync::core
