// StreamingMerger: the live, in-order view of a distributed sweep.
//
// The batch merge (merge.hpp) runs once at the end over the journal
// files — it is the truth the final SweepResult comes from. This class is
// its streaming twin: the supervisor offers journal records as they land
// off the workers' links, in whatever order shards produce them, and the merger emits the longest contiguous
// grid-order prefix to its sink. Subscribers of a served campaign see
// partial tables grow front-to-back while late shards still compute,
// instead of waiting for the last one.
//
// Dedup semantics mirror merge_journals exactly: first record per index
// wins, a later duplicate that agrees on status is tolerated and counted
// (retransmitted frames, a steal overlap), a disagreeing duplicate throws
// JournalConflictError — better a loud failure than silently picking one
// of two contradictory results.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "psync/driver/workload.hpp"

namespace psync::dist {

class StreamingMerger {
 public:
  using Emit = std::function<void(std::size_t, const driver::RunRecord&)>;

  /// `grid` is the full sweep size; `emit` receives (index, record) in
  /// strictly ascending index order. `emit` may be empty (count-only).
  StreamingMerger(std::size_t grid, Emit emit);

  /// Offer one record (any arrival order). Returns true when the record
  /// was fresh — first seen for its index. Throws JournalConflictError on
  /// an out-of-grid index or a status-disagreeing duplicate.
  bool offer(const driver::RunRecord& rec);

  /// Indices [0, emitted()) have been delivered to the sink.
  [[nodiscard]] std::size_t emitted() const { return next_; }
  /// Fresh records seen so far (emitted + held).
  [[nodiscard]] std::size_t arrived() const { return arrived_; }
  /// Records waiting on a lower-index gap.
  [[nodiscard]] std::size_t held() const { return held_.size(); }
  /// Agreeing duplicates tolerated.
  [[nodiscard]] std::size_t duplicates() const { return duplicates_; }

 private:
  std::size_t grid_;
  Emit emit_;
  std::size_t next_ = 0;
  std::size_t arrived_ = 0;
  std::size_t duplicates_ = 0;
  std::vector<char> seen_;
  std::vector<driver::PointStatus> status_;  // for post-emit dup checks
  std::map<std::size_t, driver::RunRecord> held_;
};

}  // namespace psync::dist
