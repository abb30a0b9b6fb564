#include "psync/core/segmented.hpp"

#include <algorithm>
#include <string>

#include "psync/common/check.hpp"

namespace psync::core {

void SegmentedBusTopology::validate() const {
  if (node_pos_um.empty()) {
    throw SimulationError("SegmentedBusTopology: no nodes");
  }
  for (std::size_t i = 1; i < node_pos_um.size(); ++i) {
    if (node_pos_um[i] <= node_pos_um[i - 1]) {
      throw SimulationError("SegmentedBusTopology: node taps must increase");
    }
  }
  for (std::size_t i = 1; i < repeater_pos_um.size(); ++i) {
    if (repeater_pos_um[i] <= repeater_pos_um[i - 1]) {
      throw SimulationError("SegmentedBusTopology: repeaters must increase");
    }
  }
  for (double r : repeater_pos_um) {
    for (double n : node_pos_um) {
      if (r == n) {
        throw SimulationError(
            "SegmentedBusTopology: repeater coincides with a node tap");
      }
    }
    if (r >= terminus_um || r <= 0.0) {
      throw SimulationError("SegmentedBusTopology: repeater outside the bus");
    }
  }
  if (terminus_um < node_pos_um.back()) {
    throw SimulationError("SegmentedBusTopology: terminus upstream of nodes");
  }
  if (repeater_latency_ps < 0) {
    throw SimulationError("SegmentedBusTopology: negative repeater latency");
  }
}

std::size_t SegmentedBusTopology::repeaters_before(double x_um) const {
  std::size_t n = 0;
  for (double r : repeater_pos_um) {
    if (r < x_um) ++n;
  }
  return n;
}

SegmentedScaEngine::SegmentedScaEngine(SegmentedBusTopology topo)
    : topo_(std::move(topo)), clock_(topo_.clock) {
  topo_.validate();
  check_budget();
}

void SegmentedScaEngine::check_budget() const {
  if (!topo_.budget.has_value()) return;
  // Each span must close on its own optical power (repeaters relaunch).
  std::vector<double> cuts;
  cuts.push_back(0.0);
  for (double r : topo_.repeater_pos_um) cuts.push_back(r);
  cuts.push_back(topo_.terminus_um);
  for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
    const double lo = cuts[s];
    const double hi = cuts[s + 1];
    std::size_t taps = 0;
    for (double x : topo_.node_pos_um) {
      if (x > lo && x < hi) ++taps;
    }
    if (taps == 0) continue;
    photonic::LinkBudgetParams p = *topo_.budget;
    p.modulator_pitch_cm =
        units::um_to_cm(hi - lo) / static_cast<double>(taps);
    if (photonic::max_segments(p) < taps) {
      throw SimulationError("SegmentedScaEngine: span " + std::to_string(s) +
                            " does not close its link budget for " +
                            std::to_string(taps) + " taps");
    }
  }
}

TimePs SegmentedScaEngine::perceived_edge_ps(std::size_t node, Slot s) const {
  PSYNC_CHECK(node < topo_.nodes());
  const double x = topo_.node_pos_um[node];
  return clock_.perceived_edge_ps(x, s) +
         static_cast<TimePs>(topo_.repeaters_before(x)) *
             topo_.repeater_latency_ps;
}

TimePs SegmentedScaEngine::slot_arrival_ps(Slot s) const {
  return clock_.perceived_edge_ps(topo_.terminus_um, s) +
         static_cast<TimePs>(topo_.repeater_pos_um.size()) *
             topo_.repeater_latency_ps;
}

namespace {

const GatherErrors kSegmentedGatherErrors{
    "segmented gather",
    [](std::size_t node, std::size_t, std::size_t) {
      return "segmented gather: node " + std::to_string(node) +
             " data/CP size mismatch";
    },
    [](const Collision&) {
      return std::string("segmented gather: waveguide collision");
    }};

}  // namespace

GatherResult SegmentedScaEngine::gather(
    const CpSchedule& schedule, const std::vector<std::vector<Word>>& node_data,
    bool strict) const {
  if (schedule.nodes() != topo_.nodes() || node_data.size() != topo_.nodes()) {
    throw SimulationError("segmented gather: node count mismatch");
  }
  // A node's perceived edge carries its upstream repeaters; its energy
  // picks up the downstream ones on the way to the terminus.
  GatherClock clock{clock_.period_ps(), {}, {}};
  clock.modulated_base_ps.reserve(topo_.nodes());
  clock.arrival_base_ps.reserve(topo_.nodes());
  const TimePs terminus = clock_.flight_ps(topo_.terminus_um);
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    const double x = topo_.node_pos_um[i];
    const auto downstream =
        topo_.repeater_pos_um.size() - topo_.repeaters_before(x);
    const TimePs modulated = perceived_edge_ps(i, 0);
    clock.modulated_base_ps.push_back(modulated);
    clock.arrival_base_ps.push_back(
        modulated + (terminus - clock_.flight_ps(x)) +
        static_cast<TimePs>(downstream) * topo_.repeater_latency_ps);
  }
  return run_gather(schedule, node_data, clock, kSegmentedGatherErrors,
                    strict);
}

ScatterResult SegmentedScaEngine::scatter(const CpSchedule& schedule,
                                          const std::vector<Word>& burst,
                                          bool strict) const {
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("segmented scatter: node count mismatch");
  }
  ScatterResult out;
  out.received.resize(topo_.nodes());

  std::vector<std::int32_t> owner(burst.size(), -1);
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kListen) continue;
      for (Slot s = e.begin; s < e.end(); ++s) {
        if (s < 0 || static_cast<std::size_t>(s) >= burst.size()) {
          throw SimulationError("segmented scatter: CP beyond the burst");
        }
        auto& o = owner[static_cast<std::size_t>(s)];
        if (o != -1) {
          throw SimulationError("segmented scatter: slot claimed twice");
        }
        o = static_cast<std::int32_t>(i);
      }
    }
  }
  std::vector<TimePs> edge0(topo_.nodes());
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    edge0[i] = perceived_edge_ps(i, 0);
  }
  std::vector<std::size_t> next_element(topo_.nodes(), 0);
  for (std::size_t s = 0; s < burst.size(); ++s) {
    const std::int32_t node = owner[s];
    if (node < 0) {
      out.unclaimed_slots.push_back(static_cast<Slot>(s));
      continue;
    }
    DeliveryRecord rec;
    rec.slot = static_cast<Slot>(s);
    rec.word = burst[s];
    rec.node = node;
    rec.element =
        static_cast<std::int64_t>(next_element[static_cast<std::size_t>(node)]++);
    rec.arrival_ps = edge0[static_cast<std::size_t>(node)] +
                     static_cast<Slot>(s) * clock_.period_ps();
    out.deliveries.push_back(rec);
    out.received[static_cast<std::size_t>(node)].push_back(burst[s]);
  }
  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("segmented scatter: unclaimed slots");
  }
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

SegmentedBusTopology segmented_bus_topology(std::size_t nodes,
                                            std::size_t spans, double span_cm,
                                            photonic::ClockParams clock) {
  PSYNC_CHECK(nodes > 0 && spans > 0 && span_cm > 0.0);
  SegmentedBusTopology topo;
  topo.clock = clock;
  const double total_um = units::cm_to_um(span_cm) * static_cast<double>(spans);
  const double pitch = total_um / static_cast<double>(nodes + 1);
  for (std::size_t i = 0; i < nodes; ++i) {
    topo.node_pos_um.push_back(pitch * static_cast<double>(i + 1));
  }
  for (std::size_t s = 1; s < spans; ++s) {
    double r = units::cm_to_um(span_cm) * static_cast<double>(s);
    // Nudge off any node tap.
    for (double n : topo.node_pos_um) {
      if (n == r) r += pitch * 0.01;
    }
    topo.repeater_pos_um.push_back(r);
  }
  topo.terminus_um = total_um;
  return topo;
}

}  // namespace psync::core
