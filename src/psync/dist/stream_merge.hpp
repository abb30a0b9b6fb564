// StreamingMerger: the live, in-order view of a distributed sweep.
//
// The leader keeps one grid-indexed record table (driver::RecordTable)
// fed by the journal it resumed and by every record a worker ships; the
// table is both the journal's dedup rule and the final SweepResult. This
// class is a cursor over it: after each fresh record the supervisor calls
// advance(), and the cursor emits the longest contiguous grid-order prefix
// it has not emitted yet. Subscribers of a served campaign see partial
// tables grow front-to-back while late shards still compute, instead of
// waiting for the last one. Duplicates never reach the cursor — the
// table already refused or counted them.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "psync/driver/campaign.hpp"

namespace psync::dist {

class StreamingMerger {
 public:
  using Emit = std::function<void(std::size_t, const driver::RunRecord&)>;

  /// `emit` receives (index, record) in strictly ascending index order.
  explicit StreamingMerger(Emit emit) : emit_(std::move(emit)) {}

  /// Emit every record of `table` from emitted() up to its first gap.
  void advance(const driver::RecordTable& table) {
    while (next_ < table.size() && table.has(next_)) {
      if (emit_) emit_(next_, table[next_]);
      ++next_;
    }
  }

  /// Indices [0, emitted()) have been delivered to the sink.
  [[nodiscard]] std::size_t emitted() const { return next_; }

 private:
  Emit emit_;
  std::size_t next_ = 0;
};

}  // namespace psync::dist
