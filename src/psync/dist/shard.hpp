// Shard planning for distributed sweeps: how the unrecorded part of one
// sweep grid is cut into contiguous per-worker ranges. Pure functions —
// the supervisor owns all runtime state.
//
// Ranges are contiguous because workers execute their window in ascending
// grid order (threads = 1 per worker by default), which makes "the
// unfinished remainder of a shard" a suffix — the property the
// work-stealing re-partitioner leans on. Correctness never depends on it:
// the leader's record table dedupes and validates by global index.
#pragma once

#include <cstddef>
#include <vector>

namespace psync::dist {

/// Half-open window [begin, end) of global sweep-grid indices.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool contains(std::size_t index) const {
    return index >= begin && index < end;
  }
};

/// Partition the gaps of a grid — the indices i with recorded[i] == 0 —
/// into contiguous, non-empty ranges that cover every gap and no recorded
/// index. Each maximal gap run gets a share of `workers` proportional to
/// its length (rounded up, at least one), split as split_range does, so a
/// fresh grid (no index recorded) yields `workers` shards whose sizes
/// differ by at most one, the first `points % workers` getting the extra
/// point. `workers` == 0 is treated as 1; a fully recorded grid yields no
/// shards.
std::vector<ShardRange> plan_shards(const std::vector<char>& recorded,
                                    std::size_t workers);

/// Split `range` into at most `pieces` contiguous non-empty sub-ranges
/// (same balancing rule). Used when a straggler's or dead worker's
/// remaining window is re-partitioned across idle slots.
std::vector<ShardRange> split_range(const ShardRange& range,
                                    std::size_t pieces);

}  // namespace psync::dist
