#include "psync/mesh/memory_interface.hpp"

#include <algorithm>

#include "psync/common/check.hpp"

namespace psync::mesh {

MemoryInterface::MemoryInterface(MemoryInterfaceParams params,
                                 std::uint64_t expected_elements)
    : params_(params), expected_elements_(expected_elements) {
  if (params_.element_bits == 0) {
    throw SimulationError("MemoryInterface: element bits must be positive");
  }
  if (params_.dram.row_size_bits % params_.element_bits != 0) {
    throw SimulationError(
        "MemoryInterface: DRAM row must hold a whole number of elements");
  }
}

std::uint64_t MemoryInterface::row_write_cost(std::uint64_t rows) const {
  return rows * dram::row_transaction_cycles(params_.dram);
}

bool MemoryInterface::accept(const Flit& flit, std::int64_t cycle) {
  PSYNC_CHECK_MSG(cycle >= now_, "MemoryInterface: accept cycle went back");
  now_ = cycle;
  if (cycle == accepted_cycle_) return false;
  if (cycle < busy_until_) return false;

  accepted_cycle_ = cycle;
  if (flit.is_head() && !flit.is_tail()) {
    // Address header: decode is covered by the ejection cycle itself.
    packet_elements_ = 0;
    packet_src_ = flit.src;
    packet_base_ = flit.payload;
    return true;
  }

  // Data element (body/tail, or single-flit head-tail carrying one element).
  if (collector_) {
    collector_(packet_src_, packet_base_ + packet_elements_, flit.payload);
  }
  ++elements_received_;
  ++packet_elements_;
  row_fill_bits_ += params_.element_bits;

  if (flit.is_tail()) {
    ++packets_received_;
    // Reorder the whole packet, then burst any filled rows to DRAM.
    const std::uint64_t reorder =
        packet_elements_ * params_.reorder_cycles_per_element;
    std::uint64_t write = 0;
    if (row_fill_bits_ >= params_.dram.row_size_bits) {
      const std::uint64_t rows = row_fill_bits_ / params_.dram.row_size_bits;
      row_fill_bits_ %= params_.dram.row_size_bits;
      write = row_write_cost(rows);
    }
    const bool last = elements_received_ == expected_elements_;
    if (last && row_fill_bits_ > 0) {
      // Flush the final partial row.
      write += row_write_cost(1);
      row_fill_bits_ = 0;
    }
    dram_write_cycles_ += write;
    reorder_stall_cycles_ += reorder;
    if (!params_.overlap_stages) {
      busy_until_ = cycle + 1 + static_cast<std::int64_t>(reorder + write);
    } else {
      // Pipelined: the port keeps ejecting; only the DRAM bus time of the
      // *final* packet extends the completion point.
      busy_until_ = cycle + 1;
    }
    if (last) {
      completion_cycle_ =
          params_.overlap_stages
              ? cycle + 1 + static_cast<std::int64_t>(reorder + write)
              : busy_until_;
    }
    packet_elements_ = 0;
  }
  return true;
}

std::int64_t MemoryInterface::ready_cycle(std::int64_t cycle) const {
  return std::max(cycle + 1, busy_until_);
}

bool MemoryInterface::done(std::int64_t cycle) const {
  return elements_received_ == expected_elements_ && cycle > busy_until_;
}

}  // namespace psync::mesh
