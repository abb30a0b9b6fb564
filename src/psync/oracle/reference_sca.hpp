// Test oracle for the SCA engine: the original record-and-sort gather and
// the per-slot clock evaluation of the scatter.
//
// core::ScaEngine::gather places each terminus record at its slot's index
// and sorts only when a double-driven or hole-bearing slot range, or a
// per-node timing skew, keeps arrival order from being slot order;
// core::ScaEngine::scatter evaluates each node's clock once instead of per
// slot. Both produce the same results, field for field, as these
// functions, which build every record with two flight-time evaluations and
// sort the whole stream by (arrival, slot). The differential suite
// (ScaOracle.*) compares the two on seeded random schedules, and
// bench_driver's `sca_gather_transpose_reference` entry times the gather
// oracle so the engine's speedup stays measured. Test/bench only: no
// library under src/psync links or includes it.
#pragma once

#include <vector>

#include "psync/core/sca.hpp"

namespace psync::oracle {

/// Same contract as core::ScaEngine::gather on `engine`'s topology.
core::GatherResult gather_reference(
    const core::ScaEngine& engine, const core::CpSchedule& schedule,
    const std::vector<std::vector<core::Word>>& node_data, bool strict = true);

/// Same contract as core::ScaEngine::scatter on `engine`'s topology.
core::ScatterResult scatter_reference(const core::ScaEngine& engine,
                                      const core::CpSchedule& schedule,
                                      const std::vector<core::Word>& burst,
                                      bool strict = true);

}  // namespace psync::oracle
