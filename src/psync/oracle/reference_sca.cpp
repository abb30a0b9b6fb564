#include "psync/oracle/reference_sca.hpp"

#include <algorithm>
#include <string>

#include "psync/common/check.hpp"

namespace psync::oracle {

using core::Collision;
using core::CpAction;
using core::CpEntry;
using core::CpSchedule;
using core::DeliveryRecord;
using core::GatherResult;
using core::ScatterResult;
using core::Slot;
using core::SlotRecord;
using core::Word;

GatherResult gather_reference(const core::ScaEngine& engine,
                              const CpSchedule& schedule,
                              const std::vector<std::vector<Word>>& node_data,
                              bool strict) {
  const core::PscanTopology& topo_ = engine.topology();
  const photonic::PhotonicClock& clock_ = engine.clock();
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("gather: schedule/topology node count mismatch");
  }
  if (node_data.size() != topo_.nodes()) {
    throw SimulationError("gather: node_data size mismatch");
  }

  const TimePs period = clock_.period_ps();
  GatherResult out;

  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
    const double x = topo_.node_pos_um[i];
    const TimePs fault =
        topo_.skew_error_ps.empty() ? 0 : topo_.skew_error_ps[i];
    std::size_t element = 0;
    for (const CpEntry& e : schedule.node_cps[i].entries()) {
      if (e.action != CpAction::kDrive) continue;
      for (Slot s = e.begin; s < e.end(); ++s, ++element) {
        if (element >= node_data[i].size()) {
          throw SimulationError("gather: node " + std::to_string(i) +
                                " CP drives more slots than it has data");
        }
        SlotRecord rec;
        rec.slot = s;
        rec.word = node_data[i][element];
        rec.source = static_cast<std::int32_t>(i);
        rec.modulated_ps = clock_.perceived_edge_ps(x, s) + fault;
        // Imprinted energy continues downstream to the terminus.
        rec.arrival_ps =
            rec.modulated_ps +
            (clock_.flight_ps(topo_.terminus_um) - clock_.flight_ps(x));
        out.stream.push_back(rec);
      }
    }
    if (strict && element != node_data[i].size()) {
      throw SimulationError("gather: node " + std::to_string(i) + " has " +
                            std::to_string(node_data[i].size()) +
                            " words but CP drives " + std::to_string(element) +
                            " slots");
    }
  }

  std::sort(out.stream.begin(), out.stream.end(),
            [](const SlotRecord& a, const SlotRecord& b) {
              if (a.arrival_ps != b.arrival_ps) return a.arrival_ps < b.arrival_ps;
              return a.slot < b.slot;
            });

  // Collision scan: each slot occupies [arrival, arrival + period) at the
  // terminus; overlap between records from different nodes is a collision.
  for (std::size_t i = 1; i < out.stream.size(); ++i) {
    const auto& a = out.stream[i - 1];
    const auto& b = out.stream[i];
    const TimePs overlap = (a.arrival_ps + period) - b.arrival_ps;
    if (overlap > 0 && a.source != b.source) {
      out.collisions.push_back(
          Collision{a.source, b.source, a.slot, b.slot, overlap});
    } else if (overlap > 0 && a.source == b.source && a.slot == b.slot) {
      throw SimulationError("gather: node drives the same slot twice");
    }
  }
  if (strict && !out.collisions.empty()) {
    const auto& c = out.collisions.front();
    throw SimulationError(
        "gather: waveguide collision between node " +
        std::to_string(c.node_a) + " (slot " + std::to_string(c.slot_a) +
        ") and node " + std::to_string(c.node_b) + " (slot " +
        std::to_string(c.slot_b) + "), overlap " +
        std::to_string(c.overlap_ps) + " ps");
  }

  if (!out.stream.empty()) {
    out.first_arrival_ps = out.stream.front().arrival_ps;
    TimePs first_mod = out.stream.front().modulated_ps;
    for (const auto& r : out.stream) first_mod = std::min(first_mod, r.modulated_ps);
    out.span_ps = (out.stream.back().arrival_ps + period) - first_mod;

    out.gap_free = true;
    for (std::size_t i = 1; i < out.stream.size(); ++i) {
      if (out.stream[i].arrival_ps - out.stream[i - 1].arrival_ps != period) {
        out.gap_free = false;
        break;
      }
    }
    const TimePs window =
        (out.stream.back().arrival_ps - out.stream.front().arrival_ps) + period;
    out.utilization = static_cast<double>(out.stream.size()) *
                      static_cast<double>(period) / static_cast<double>(window);
  }
  return out;
}

ScatterResult scatter_reference(const core::ScaEngine& engine,
                                const CpSchedule& schedule,
                                const std::vector<Word>& burst, bool strict) {
  const core::PscanTopology& topo_ = engine.topology();
  const photonic::PhotonicClock& clock_ = engine.clock();
  if (schedule.nodes() != topo_.nodes()) {
    throw SimulationError("scatter: schedule/topology node count mismatch");
  }

  ScatterResult out;
  out.received.resize(topo_.nodes());

  // Which node listens on each slot (throws on double-claim).
  std::vector<std::int32_t> owner(burst.size(), -1);
  for (std::size_t i = 0; i < topo_.nodes(); ++i) {
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
      }
    }
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
    rec.element = static_cast<std::int64_t>(next_element[node]++);
    // The word passes the node's tap at its perceived slot time.
    const TimePs fault = topo_.skew_error_ps.empty()
                             ? 0
                             : topo_.skew_error_ps[static_cast<std::size_t>(node)];
    rec.arrival_ps = clock_.perceived_edge_ps(
                         topo_.node_pos_um[static_cast<std::size_t>(node)],
                         static_cast<Slot>(s)) +
                     fault;
    out.deliveries.push_back(rec);
    out.received[static_cast<std::size_t>(node)].push_back(burst[s]);
  }

  if (strict && !out.unclaimed_slots.empty()) {
    throw SimulationError("scatter: " +
                          std::to_string(out.unclaimed_slots.size()) +
                          " burst slots have no listener");
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

}  // namespace psync::oracle
