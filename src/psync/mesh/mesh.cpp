#include "psync/mesh/mesh.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "psync/common/check.hpp"

namespace psync::mesh {

bool ConsumeSink::accept(const Flit& flit, std::int64_t cycle) {
  if (!accept_fast(flit.is_tail(), cycle)) return false;
  if (keep_log_) {
    log_.push_back(flit);
    log_cycles_.push_back(cycle);
  }
  return true;
}

namespace {

std::atomic<bool> g_reference_datapath{false};

constexpr int opposite(int port) {
  switch (port) {
    case 0: return 2;  // N <-> S
    case 1: return 3;  // E <-> W
    case 2: return 0;
    case 3: return 1;
    default: return -1;
  }
}

// Ring-slot word accessors (layout in slot_word()).
constexpr std::uint32_t slot_packet(std::uint64_t w) {
  return static_cast<std::uint32_t>(w);
}
constexpr std::uint32_t slot_seq(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> 32) & 0x7FFFFFFFu;
}
constexpr bool slot_tail(std::uint64_t w) { return (w >> 63) != 0; }
// Head flits (kHead or kHeadTail) are exactly those with seq == 0.
constexpr bool slot_head(std::uint64_t w) {
  return (w & 0x7FFFFFFF00000000ull) == 0;
}

// SWAR byte-lane masks over one aligned 64-bit load. In packed mode a
// router's five input VCs occupy the low five bytes of an 8-byte-aligned
// word of the per-VC state arrays; kMsb5 keeps only their lanes (the three
// high lanes are padding).
constexpr std::uint64_t kLsb8 = 0x0101010101010101ull;
constexpr std::uint64_t kMsb8 = 0x8080808080808080ull;
constexpr std::uint64_t kMsb5 = 0x0000008080808080ull;
constexpr std::uint64_t kMask5 = 0x000000FFFFFFFFFFull;

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint64_t load_u64(const std::int8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// 0x80 in every byte lane whose value is nonzero.
inline std::uint64_t bytes_nonzero(std::uint64_t x) {
  return (((x & ~kMsb8) + ~kMsb8) | x) & kMsb8;
}
/// 0x80 in every byte lane equal to `b` (mask the result to the lanes you
/// mean — the complement covers all eight).
inline std::uint64_t bytes_eq(std::uint64_t x, std::uint8_t b) {
  return bytes_nonzero(x ^ (kLsb8 * b)) ^ kMsb8;
}
/// Lane index of the lowest set 0x80 bit.
inline std::uint32_t first_lane(std::uint64_t m) {
  return static_cast<std::uint32_t>(std::countr_zero(m)) >> 3;
}
/// Compress a 0x80-per-lane mask into one bit per lane (movemask).
inline std::uint32_t lane_bits(std::uint64_t m) {
  return static_cast<std::uint32_t>((m * 0x0002040810204081ull) >> 56);
}

}  // namespace

void set_reference_datapath(bool on) {
  g_reference_datapath.store(on, std::memory_order_relaxed);
}
bool reference_datapath() {
  return g_reference_datapath.load(std::memory_order_relaxed);
}

Mesh::Mesh(MeshParams params) : params_(params) {
  if (params_.width == 0 || params_.height == 0) {
    throw SimulationError("Mesh: dimensions must be positive");
  }
  if (params_.buffer_depth == 0) {
    throw SimulationError("Mesh: buffer depth must be positive");
  }
  if (params_.virtual_channels == 0 || params_.virtual_channels > 16) {
    throw SimulationError("Mesh: virtual channels must be in [1, 16]");
  }
  // The SoA layout packs FIFO occupancy and credits into bytes; depths that
  // do not fit take the reference datapath (correct, just not vectorized).
  if (reference_datapath() || params_.buffer_depth > 255) {
    ref_ = std::make_unique<ReferenceMesh>(params_);
    return;
  }

  const std::uint32_t n = nodes();
  const std::uint32_t v = vcs();
  vc_total_ = static_cast<std::uint32_t>(kPorts) * v;
  fifo_cap_ = std::bit_ceil(params_.buffer_depth);
  fifo_mask_ = fifo_cap_ - 1;
  fifo_shift_ = static_cast<std::uint32_t>(std::countr_zero(fifo_cap_));
  packed_ = v == 1 && std::endian::native == std::endian::little;
  // Packed mode pads each router's five lanes to an aligned 8-byte word so
  // the scans load exactly one word per router and the lane-update helpers
  // can rewrite the containing word (store-to-load forwarding stays
  // size-matched; a byte store under a later word load stalls the pipe).
  stride_ = packed_ ? 8u : vc_total_;

  const std::size_t total_lanes = static_cast<std::size_t>(n) * stride_;
  a_slot_.assign(total_lanes * fifo_cap_, 0);

  // +8 pad so word loads/stores at the last router never touch memory past
  // the allocation (packed loads are aligned, but keep the slack for the
  // generic path's unaligned reads too).
  vc_head_.assign(total_lanes + 8, 0);
  vc_count_.assign(total_lanes + 8, 0);
  vc_route_.assign(total_lanes + 8, kNoPort8);
  vc_outvc_.assign(total_lanes + 8, kNoVc8);
  vc_routing_.assign(total_lanes + 8, 0);
  vc_wait_.assign(total_lanes, 0);

  out_owner_.assign(total_lanes, kFree8);
  credits_.assign(total_lanes, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (int p = 0; p < kPortLocal; ++p) {
      NodeId dummy;
      if (neighbor(i, p, &dummy) < 0) continue;
      for (std::uint32_t c = 0; c < v; ++c) {
        // Credits exist only toward real neighbors; eject has none.
        credits_[gvc(i, static_cast<std::uint32_t>(p), c)] =
            static_cast<std::uint8_t>(params_.buffer_depth);
      }
    }
  }

  nbr_node_.assign(static_cast<std::size_t>(n) * kPorts, 0);
  nbr_in_.assign(static_cast<std::size_t>(n) * kPorts, -1);
  cr_upcred_.assign(static_cast<std::size_t>(n) * kPorts, 0);
  x_.resize(n);
  y_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    x_[i] = x_of(i);
    y_[i] = y_of(i);
    for (int p = 0; p < kPorts; ++p) {
      NodeId to;
      const int in_port = neighbor(i, p, &to);
      const std::size_t e = static_cast<std::size_t>(i) * kPorts +
                            static_cast<std::uint32_t>(p);
      if (in_port >= 0) {
        nbr_node_[e] = to;
        nbr_in_[e] = static_cast<std::int8_t>(in_port);
        // A flit arriving at (i, p) came from `to` through its port
        // opposite(p); the credit goes back to that output's VC bank.
        cr_upcred_[e] =
            (static_cast<std::uint64_t>(
                 gvc(to, static_cast<std::uint32_t>(opposite(p)), 0))
             << 32) |
            to;
      }
    }
  }

  rr_next_.assign(static_cast<std::size_t>(n) * kPorts, 0);
  vc_rr_.assign(static_cast<std::size_t>(n) * kPorts, 0);
  inject_vc_rr_.assign(n, 0);

  q_head_.assign(static_cast<std::size_t>(n) * v, kNil);
  q_tail_.assign(static_cast<std::size_t>(n) * v, kNil);
  q_cursor_.assign(static_cast<std::size_t>(n) * v, 0);

  active_stamp_.assign(n, 0);
  sinks_.resize(n, nullptr);
  default_sinks_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    default_sinks_[i] = std::make_unique<ConsumeSink>();
    sinks_[i] = default_sinks_[i].get();
  }
  vc_dest_.assign(total_lanes, 0);
  serve_hint_.assign(n, kNoHint8);
  consume_sink_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    consume_sink_[i] = default_sinks_[i].get();
  }
  // Worst case per cycle: four hops and five credit returns per router.
  staged_.reserve(static_cast<std::size_t>(n) * 4);
  credit_returns_.reserve(static_cast<std::size_t>(n) * kPorts);
  // +1 slot: activate()'s speculative store lands one past the cursor even
  // when every node is already stamped.
  cur_active_.resize(n + 1);
  next_active_.resize(n + 1);
}

NodeId Mesh::node_at(std::uint32_t x, std::uint32_t y) const {
  PSYNC_CHECK(x < params_.width && y < params_.height);
  return y * params_.width + x;
}

std::uint32_t Mesh::manhattan(NodeId a, NodeId b) const {
  const auto dx = static_cast<std::int64_t>(x_of(a)) - x_of(b);
  const auto dy = static_cast<std::int64_t>(y_of(a)) - y_of(b);
  return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

void Mesh::set_sink(NodeId node, Sink* sink) {
  if (ref_) {
    ref_->set_sink(node, sink);
    return;
  }
  PSYNC_CHECK(node < nodes());
  PSYNC_CHECK(sink != nullptr);
  sinks_[node] = sink;
  consume_sink_[node] = sink->as_consume();
}

void Mesh::lane_word_set(std::uint8_t* a, std::uint32_t g, std::uint8_t v) {
  std::uint8_t* const p = a + (g & ~std::uint32_t{7});
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  const std::uint32_t sh = 8 * (g & 7u);
  w = (w & ~(std::uint64_t{0xFF} << sh)) | (std::uint64_t{v} << sh);
  std::memcpy(p, &w, sizeof w);
}

void Mesh::cnt_add(std::uint32_t g, std::uint64_t delta) {
  if (packed_) {
    // Counts are nonzero before a decrement and below depth before an
    // increment, so the lane arithmetic never carries across byte lanes.
    std::uint8_t* const p = vc_count_.data() + (g & ~std::uint32_t{7});
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    w += delta << (8 * (g & 7u));
    std::memcpy(p, &w, sizeof w);
  } else {
    vc_count_[g] = static_cast<std::uint8_t>(
        vc_count_[g] + static_cast<std::uint8_t>(delta));
  }
}

void Mesh::rt_set(std::uint32_t g, std::uint8_t v) {
  if (packed_) {
    lane_word_set(reinterpret_cast<std::uint8_t*>(vc_route_.data()), g, v);
  } else {
    vc_route_[g] = static_cast<std::int8_t>(v);
  }
}

void Mesh::ov_set(std::uint32_t g, std::uint8_t v) {
  if (packed_) {
    lane_word_set(reinterpret_cast<std::uint8_t*>(vc_outvc_.data()), g, v);
  } else {
    vc_outvc_[g] = static_cast<std::int8_t>(v);
  }
}

void Mesh::arena_push(std::uint32_t g, std::uint64_t word) {
  PSYNC_DCHECK(vc_count_[g] < params_.buffer_depth);  // callers check first
  const std::size_t s =
      slot_base(g) + ((static_cast<std::uint32_t>(vc_head_[g]) + vc_count_[g]) &
                      fifo_mask_);
  a_slot_[s] = word;
  cnt_add(g, 1);
  ++activity_.buffer_writes;
}

Flit Mesh::make_flit(std::uint64_t word) const {
  const std::uint32_t pkt = slot_packet(word);
  const std::uint32_t seq = slot_seq(word);
  const std::uint32_t nflits = pr_flits_[pkt];
  FlitKind kind;
  std::uint64_t payload;
  if (seq == 0) {
    kind = nflits == 0 ? FlitKind::kHeadTail : FlitKind::kHead;
    payload = pr_base_[pkt];
  } else {
    kind = seq == nflits ? FlitKind::kTail : FlitKind::kBody;
    payload = pr_word_[pkt] == kNoWords ? pr_base_[pkt] + (seq - 1)
                                        : words_[pr_word_[pkt] + (seq - 1)];
  }
  return Flit{pkt, pr_src_[pkt], pr_dst_[pkt], seq, kind, payload};
}

int Mesh::neighbor(NodeId node, int out_port, NodeId* out_node) const {
  const std::uint32_t x = x_of(node);
  const std::uint32_t y = y_of(node);
  switch (out_port) {
    case kPortN:
      if (y == 0) return -1;
      *out_node = node_at(x, y - 1);
      return kPortS;
    case kPortE:
      if (x + 1 >= params_.width) return -1;
      *out_node = node_at(x + 1, y);
      return kPortW;
    case kPortS:
      if (y + 1 >= params_.height) return -1;
      *out_node = node_at(x, y + 1);
      return kPortN;
    case kPortW:
      if (x == 0) return -1;
      *out_node = node_at(x - 1, y);
      return kPortE;
    default:
      return -1;
  }
}

int Mesh::compute_route(NodeId at, NodeId dst) const {
  const auto dx = static_cast<std::int64_t>(x_[dst]) - x_[at];
  const auto dy = static_cast<std::int64_t>(y_[dst]) - y_[at];
  if (dx == 0 && dy == 0) return kPortLocal;  // eject

  if (params_.algo == RouteAlgo::kXY) {
    if (dx > 0) return kPortE;
    if (dx < 0) return kPortW;
    return dy > 0 ? kPortS : kPortN;
  }

  // West-first minimal adaptive (deadlock-free turn model): any packet that
  // must move west does so first, deterministically; otherwise choose the
  // minimal direction with more total credits (less congestion).
  if (dx < 0) return kPortW;
  int best = -1;
  int best_credits = -1;
  auto consider = [&](int port) {
    int c = 0;
    for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
      c += credits_[gvc(at, static_cast<std::uint32_t>(port), vc)];
    }
    if (c > best_credits) {
      best_credits = c;
      best = port;
    }
  };
  if (dx > 0) consider(kPortE);
  if (dy > 0) consider(kPortS);
  if (dy < 0) consider(kPortN);
  PSYNC_CHECK(best >= 0);
  return best;
}

bool Mesh::eject_flit(NodeId n, std::uint32_t i) {
  const std::uint32_t g = n * stride_ + i;
  const std::size_t s = slot_base(g) + vc_head_[g];
  const Flit front = make_flit(a_slot_[s]);
  if (!sinks_[n]->accept(front, cycle_)) return false;
  vc_head_[g] = static_cast<std::uint8_t>(
      (static_cast<std::uint32_t>(vc_head_[g]) + 1) & fifo_mask_);
  cnt_add(g, static_cast<std::uint64_t>(-1));
  ++activity_.buffer_reads;
  ++activity_.ejected_flits;
  const std::uint32_t in_port = i / vcs();
  if (in_port < static_cast<std::uint32_t>(kPortLocal)) {
    credit_returns_.push_back(
        cr_upcred_[static_cast<std::size_t>(n) * kPorts + in_port] +
        (static_cast<std::uint64_t>(i % vcs()) << 32));
  }
  if (front.is_tail()) {
    out_owner_[gvc(n, kPortLocal, static_cast<std::uint32_t>(vc_outvc_[g]))] =
        kFree8;
    rt_set(g, 0xFF);
    ov_set(g, 0xFF);
    ++activity_.ejected_packets;
    PSYNC_DCHECK(front.packet < packet_inject_cycle_.size());
    const auto lat =
        static_cast<double>(cycle_ - packet_inject_cycle_[front.packet]);
    packet_latency_.add(lat);
    if (record_latencies_) latencies_.push_back(lat);
    PSYNC_DCHECK(in_flight_packets_ > 0);
    --in_flight_packets_;
  }
  PSYNC_DCHECK(in_flight_flits_ > 0);
  --in_flight_flits_;
  return true;
}

void Mesh::hop_flit(NodeId n, std::uint32_t i, int o) {
  const std::size_t e =
      static_cast<std::size_t>(n) * kPorts + static_cast<std::uint32_t>(o);
  const NodeId next_node = nbr_node_[e];
  const int next_in = nbr_in_[e];
  PSYNC_DCHECK(next_in >= 0);  // routes never point off the mesh edge
  const std::uint32_t g = n * stride_ + i;
  const auto out_vc = static_cast<std::uint32_t>(vc_outvc_[g]);
  const std::uint64_t word = a_slot_[slot_base(g) + vc_head_[g]];
  // Write the flit into the downstream slot now; the credit protocol
  // guarantees a free slot, and it stays invisible until the count
  // increment commits at end of cycle.
  const std::uint32_t dg =
      gvc(next_node, static_cast<std::uint32_t>(next_in), out_vc);
  PSYNC_DCHECK(vc_count_[dg] < params_.buffer_depth);
  a_slot_[slot_base(dg) + ((static_cast<std::uint32_t>(vc_head_[dg]) +
                            vc_count_[dg]) &
                           fifo_mask_)] = word;
  staged_.push_back(Staged{dg, next_node});
  vc_head_[g] = static_cast<std::uint8_t>(
      (static_cast<std::uint32_t>(vc_head_[g]) + 1) & fifo_mask_);
  cnt_add(g, static_cast<std::uint64_t>(-1));
  ++activity_.buffer_reads;
  --credits_[gvc(n, static_cast<std::uint32_t>(o), out_vc)];
  ++activity_.crossbar_traversals;
  ++activity_.link_traversals;
  const std::uint32_t in_port = i / vcs();
  if (in_port < static_cast<std::uint32_t>(kPortLocal)) {
    credit_returns_.push_back(
        cr_upcred_[static_cast<std::size_t>(n) * kPorts + in_port] +
        (static_cast<std::uint64_t>(i % vcs()) << 32));
  }
  if (slot_tail(word)) {
    out_owner_[gvc(n, static_cast<std::uint32_t>(o), out_vc)] = kFree8;
    rt_set(g, 0xFF);
    ov_set(g, 0xFF);
  }
}

bool Mesh::eject_flit_packed(NodeId n, std::uint32_t i, std::uint64_t w) {
  // V == 1 specialization of eject_flit(): the allocated out-VC is always 0
  // and lane index == input port, and a cached ConsumeSink that is not
  // logging needs only the tail flag — no Flit reconstruction, no virtual
  // dispatch. `w` is the lane's head slot word, preloaded by the caller.
  const std::uint32_t g = n * 8u + i;
  ConsumeSink* const cs = consume_sink_[n];
  const bool ok = cs != nullptr && !cs->logging()
                      ? cs->accept_fast(slot_tail(w), cycle_)
                      : sinks_[n]->accept(make_flit(w), cycle_);
  if (!ok) return false;
  // buffer_reads and ejected_flits are batched per step from the caller's
  // eject count (exactly one of each per successful eject).
  vc_head_[g] = static_cast<std::uint8_t>(
      (static_cast<std::uint32_t>(vc_head_[g]) + 1) & fifo_mask_);
  cnt_add(g, static_cast<std::uint64_t>(-1));
  if (i < static_cast<std::uint32_t>(kPortLocal)) {
    credit_returns_.push_back(
        cr_upcred_[static_cast<std::size_t>(n) * kPorts + i]);
  }
  if (slot_tail(w)) {
    out_owner_[n * 8u + kPortLocal] = kFree8;
    rt_set(g, 0xFF);
    ov_set(g, 0xFF);
    ++activity_.ejected_packets;
    const std::uint32_t pkt = slot_packet(w);
    PSYNC_DCHECK(pkt < packet_inject_cycle_.size());
    const auto lat = static_cast<double>(cycle_ - packet_inject_cycle_[pkt]);
    packet_latency_.add(lat);
    if (record_latencies_) latencies_.push_back(lat);
    PSYNC_DCHECK(in_flight_packets_ > 0);
    --in_flight_packets_;
  }
  PSYNC_DCHECK(in_flight_flits_ > 0);
  --in_flight_flits_;
  return true;
}

void Mesh::hop_flit_packed(NodeId n, std::uint32_t i, std::uint32_t o,
                           std::uint64_t word) {
  // V == 1 specialization of hop_flit(): out-VC 0, lane index == input
  // port, and the downstream slot index was cached at allocation time
  // (vc_dest_), so the geometry tables stay out of the per-flit path.
  // `word` is the lane's head slot word, already loaded by every caller
  // for its tail test — passing it through keeps the scattered arena read
  // off the per-flit path.
  const std::uint32_t g = n * 8u + i;
  const std::uint32_t dg = vc_dest_[g];
  PSYNC_DCHECK(vc_count_[dg] < params_.buffer_depth);
  a_slot_[slot_base(dg) + ((static_cast<std::uint32_t>(vc_head_[dg]) +
                            vc_count_[dg]) &
                           fifo_mask_)] = word;
  staged_.push_back(Staged{dg, dg >> 3});
  // buffer_reads / crossbar_traversals / link_traversals are batched per
  // step from the staged count (exactly one of each per hop), keeping
  // uint64 member read-modify-writes out of the per-flit path — the byte
  // stores above alias everything, so the compiler could not cache them.
  vc_head_[g] = static_cast<std::uint8_t>(
      (static_cast<std::uint32_t>(vc_head_[g]) + 1) & fifo_mask_);
  cnt_add(g, static_cast<std::uint64_t>(-1));
  --credits_[n * 8u + o];
  if (i < static_cast<std::uint32_t>(kPortLocal)) {
    credit_returns_.push_back(
        cr_upcred_[static_cast<std::size_t>(n) * kPorts + i]);
  }
  if (slot_tail(word)) {
    out_owner_[n * 8u + o] = kFree8;
    rt_set(g, 0xFF);
    ov_set(g, 0xFF);
  }
}

bool Mesh::serve_injection(NodeId n) {
  // One flit per cycle total across the node's local VCs, round-robin.
  const std::uint32_t v = vcs();
  for (std::uint32_t k = 0; k < v; ++k) {
    std::uint32_t vc = inject_vc_rr_[n] + k;
    if (vc >= v) vc -= v;
    const std::size_t qi = static_cast<std::size_t>(n) * v + vc;
    const std::uint32_t pkt = q_head_[qi];
    if (pkt == kNil) continue;
    const std::uint32_t g = gvc(n, kPortLocal, vc);
    if (vc_count_[g] >= params_.buffer_depth) continue;

    // Emit flit `cur` of the head packet: the slot word carries everything
    // the datapath needs; the remaining fields are derived at eject.
    const std::uint32_t cur = q_cursor_[qi];
    const std::uint32_t nflits = pr_flits_[pkt];
    if (cur == 0) packet_inject_cycle_[pkt] = cycle_;
    arena_push(g, slot_word(pkt, cur, cur >= nflits));
    ++activity_.injected_flits;
    ++in_flight_flits_;
    PSYNC_DCHECK(queued_flits_ > 0);
    --queued_flits_;

    if (cur >= nflits) {  // tail (or head-tail) emitted: next packet
      q_head_[qi] = pr_qnext_[pkt];
      if (q_head_[qi] == kNil) q_tail_[qi] = kNil;
      q_cursor_[qi] = 0;
    } else {
      q_cursor_[qi] = cur + 1;
    }
    const std::uint32_t next_vc = vc + 1;
    inject_vc_rr_[n] = static_cast<std::uint8_t>(next_vc >= v ? 0 : next_vc);
    return true;
  }
  return false;
}

void Mesh::activate(NodeId n) {
  // Branchless dedupe: the store is speculative (the list has a spare
  // slot), the cursor advances only on a fresh stamp. This runs ~20 times
  // a cycle with a data-dependent hit rate, so a compare-and-branch here
  // is a steady source of mispredicts.
  const std::uint64_t tag = active_epoch_ + 1;
  next_active_[next_active_size_] = n;
  next_active_size_ += active_stamp_[n] != tag;
  active_stamp_[n] = tag;
}

void Mesh::enqueue_packet(PacketId id) {
  // A non-empty inject queue ends the streaming-worm state for the source
  // router (the hinted visit skips the injection check).
  serve_hint_[pr_src_[id]] = kNoHint8;
  queued_flits_ += pr_flits_[id] == 0 ? 1 : pr_flits_[id] + 1;
  // Assign the whole packet to one local VC, rotating per packet.
  const std::uint32_t vc = id % vcs();
  const std::size_t qi = static_cast<std::size_t>(pr_src_[id]) * vcs() + vc;
  pr_qnext_[id] = kNil;
  if (q_tail_[qi] == kNil) {
    q_head_[qi] = id;
    q_cursor_[qi] = 0;
  } else {
    pr_qnext_[q_tail_[qi]] = id;
  }
  q_tail_[qi] = id;
}

void Mesh::inject(const PacketDesc& desc) {
  if (ref_) {
    ref_->inject(desc);
    return;
  }
  PSYNC_CHECK(desc.src < nodes());
  PSYNC_CHECK(desc.dst < nodes());
  PSYNC_CHECK_MSG(desc.words.empty() || desc.words.size() == desc.payload_flits,
                  "PacketDesc.words size must match payload_flits");
  // The ring-slot word keeps the sequence number in 31 bits (bit 63 is the
  // tail flag); a packet this long could not be buffered anyway.
  PSYNC_CHECK_MSG(desc.payload_flits < 0x80000000u,
                  "payload_flits exceeds 2^31-1");
  const PacketId id = static_cast<PacketId>(packet_inject_cycle_.size());
  packet_inject_cycle_.push_back(-1);
  pr_src_.push_back(desc.src);
  pr_dst_.push_back(desc.dst);
  pr_flits_.push_back(desc.payload_flits);
  pr_base_.push_back(desc.payload_base);
  pr_qnext_.push_back(kNil);
  if (desc.words.empty()) {
    pr_word_.push_back(kNoWords);
  } else {
    pr_word_.push_back(static_cast<std::uint32_t>(words_.size()));
    words_.insert(words_.end(), desc.words.begin(), desc.words.end());
  }
  ++activity_.injected_packets;
  ++in_flight_packets_;
  if (desc.release_cycle <= cycle_) {
    enqueue_packet(id);
    activate(desc.src);
  } else {
    releases_.push(desc.release_cycle, Release{id});
    if (desc.release_cycle < next_release_due_) {
      next_release_due_ = desc.release_cycle;
    }
  }
}

void Mesh::update_routing_generic(NodeId n) {
  const std::uint32_t base = n * stride_;
  const std::uint32_t v = vcs();
  for (std::uint32_t i = 0; i < vc_total_; ++i) {
    const std::uint32_t g = base + i;
    // Route computation for a new head flit at the FIFO front.
    if (vc_count_[g] > 0 && vc_route_[g] == kNoPort8) {
      const std::uint64_t w = a_slot_[slot_base(g) + vc_head_[g]];
      if (slot_head(w)) {
        const NodeId dst = pr_dst_[slot_packet(w)];
        if (!vc_routing_[g]) {
          vc_routing_[g] = 1;
          vc_wait_[g] = params_.route_delay;
          if (vc_wait_[g] == 0) {
            vc_route_[g] = static_cast<std::int8_t>(compute_route(n, dst));
            vc_routing_[g] = 0;
          }
        } else if (--vc_wait_[g] == 0) {
          vc_route_[g] = static_cast<std::int8_t>(compute_route(n, dst));
          vc_routing_[g] = 0;
        }
      }
    }
    // Output-VC allocation once the route is known. The eject "output" has
    // a single lock (VC 0) so packets never interleave at a sink.
    if (vc_route_[g] != kNoPort8 && vc_outvc_[g] == kNoVc8) {
      const auto o = static_cast<std::uint32_t>(vc_route_[g]);
      const std::uint32_t limit = o == kPortLocal ? 1 : v;
      const std::uint32_t start =
          o == kPortLocal ? 0 : vc_rr_[n * kPorts + o];
      for (std::uint32_t k = 0; k < limit; ++k) {
        std::uint32_t cand = start + k;
        if (cand >= limit) cand -= limit;
        auto& owner = out_owner_[base + o * v + cand];
        if (owner == kFree8) {
          owner = static_cast<std::int8_t>(i);
          vc_outvc_[g] = static_cast<std::int8_t>(cand);
          if (o != kPortLocal) {
            const std::uint32_t nxt = cand + 1;
            vc_rr_[n * kPorts + o] =
                static_cast<std::uint8_t>(nxt >= limit ? 0 : nxt);
          }
          ++activity_.arbitrations;
          break;
        }
      }
    }
  }
}

bool Mesh::serve_outputs_generic(NodeId n, bool* refused) {
  bool progress = false;
  const std::uint32_t base = n * stride_;
  const std::uint32_t v = vcs();
  for (int o = 0; o < kPorts; ++o) {
    // Switch allocation: one flit per output per cycle, round-robin over
    // input VCs holding an allocated out-VC toward this output.
    std::int64_t chosen = -1;
    const std::uint32_t rr = rr_next_[static_cast<std::size_t>(n) * kPorts +
                                      static_cast<std::uint32_t>(o)];
    for (std::uint32_t k = 0; k < vc_total_; ++k) {
      std::uint32_t i = rr + k;
      if (i >= vc_total_) i -= vc_total_;
      const std::uint32_t g = base + i;
      if (vc_count_[g] == 0 || vc_route_[g] != static_cast<std::int8_t>(o) ||
          vc_outvc_[g] == kNoVc8) {
        continue;
      }
      if (o == kPortLocal) {
        chosen = i;
        break;
      }
      if (credits_[base + static_cast<std::uint32_t>(o) * v +
                   static_cast<std::uint32_t>(vc_outvc_[g])] > 0) {
        chosen = i;
        break;
      }
    }
    if (chosen < 0) continue;
    const auto i = static_cast<std::uint32_t>(chosen);
    const bool served =
        o == kPortLocal ? eject_flit(n, i) : (hop_flit(n, i, o), true);
    if (!served) {  // only an eject can fail: the sink refused
      *refused = true;
      continue;
    }
    progress = true;
    const std::uint32_t next_rr = i + 1;
    rr_next_[static_cast<std::size_t>(n) * kPorts +
             static_cast<std::uint32_t>(o)] =
        static_cast<std::uint8_t>(next_rr >= vc_total_ ? 0 : next_rr);
  }
  return progress;
}

void Mesh::step_router_generic(NodeId n) {
  update_routing_generic(n);
  bool refused = false;
  bool progress = serve_outputs_generic(n, &refused);
  progress |= serve_injection(n);

  // Sources with pending injections stay active only while some local
  // input VC has room; once all are full they sleep until a pop at this
  // router (progress) frees a slot.
  const std::uint32_t v = vcs();
  bool keep = progress;
  if (!keep) {
    for (std::uint32_t vc = 0; vc < v && !keep; ++vc) {
      if (q_head_[static_cast<std::size_t>(n) * v + vc] != kNil &&
          vc_count_[gvc(n, kPortLocal, vc)] < params_.buffer_depth) {
        keep = true;
      }
    }
  }
  bool eject_blocked = false;
  if (!keep) {
    const std::uint32_t base = n * stride_;
    for (std::uint32_t i = 0; i < vc_total_ && !keep; ++i) {
      if (vc_routing_[base + i]) keep = true;  // countdown ticks every cycle
      // (A head waiting for a busy out-VC needs no polling: the VC frees
      // when the holder's tail pops at THIS router, which is progress and
      // keeps the router active for the next cycle's allocation.)
      // Eject-blocked inputs must retry the sink every cycle.
      if (vc_count_[base + i] > 0 &&
          vc_route_[base + i] == static_cast<std::int8_t>(kPortLocal)) {
        eject_blocked = true;
      }
    }
  }
  if (keep) {
    activate(n);
  } else if (eject_blocked) {
    // Held awake by nothing but a refused eject: a quiet-cycle waiter.
    activate(n);
    if (refused) add_waiter(n);
  }
}

void Mesh::add_waiter(NodeId n) {
  ++waiters_;
  wake_ = std::min(wake_, sinks_[n]->ready_cycle(cycle_));
}

std::uint32_t Mesh::step_router_packed(NodeId n) {
  // Streaming-worm fast path: while exactly one lane holds flits and that
  // worm is routed and allocated with nothing queued for injection, every
  // visit can only repeat the same serve decision, so the hint replays it
  // directly — one occupancy byte and one credit byte — without the mask
  // scan below. The actions taken are exactly what the full scan would
  // choose (a single-lane `ready`, idle route/alloc/inject phases), so
  // observable behavior is identical.
  const std::uint32_t hint = serve_hint_[n];
  if (hint != kNoHint8) {
    const std::uint32_t i = hint & 7u;
    const std::uint32_t o = hint >> 3;
    const std::uint32_t g = n * 8u + i;
    if (vc_count_[g] == 0) {
      return 0;  // nothing buffered: the next arrival wakes
    }
    if (o == static_cast<std::uint32_t>(kPortLocal)) {
      const std::uint64_t w = a_slot_[slot_base(g) + vc_head_[g]];
      if (eject_flit_packed(n, i, w)) {
        if (slot_tail(w)) serve_hint_[n] = kNoHint8;
        activate(n);
        return 1;
      }
      // Eject-blocked: retry the sink next cycle. The hint implies nothing
      // else is pending here, so the router is a quiet-cycle waiter.
      activate(n);
      add_waiter(n);
      return 0;
    }
    if (credits_[n * 8u + o] > 0) {
      const std::uint64_t w = a_slot_[slot_base(g) + vc_head_[g]];
      hop_flit_packed(n, i, o, w);
      if (slot_tail(w)) serve_hint_[n] = kNoHint8;
      activate(n);
    }
    // No credit: the credit return re-activates this router.
    return 0;
  }

  // V == 1: the router's five input VCs are five consecutive bytes, one per
  // port, and every output has at most one allocated candidate (out-VC
  // ownership is exclusive), so the round-robin pointers are unobservable
  // and each serve decision reduces to a byte-mask test. The state words
  // are loaded once and kept coherent in registers as lanes change; the
  // keep-awake checks reuse them, since when nothing progressed nothing
  // was stored either.
  // Byte stores below may alias any member through the char lvalues, so
  // hoist the hot pointers and parameters into locals once.
  std::uint8_t* const vcnt = vc_count_.data();
  std::int8_t* const vrt = vc_route_.data();
  std::int8_t* const vov = vc_outvc_.data();
  const std::uint32_t depth = params_.buffer_depth;

  const std::uint32_t base = n * 8u;
  const std::uint64_t cnt = load_u64(vcnt + base);
  std::uint64_t rt = load_u64(vrt + base);
  const std::uint64_t ov = load_u64(vov + base);
  const std::uint64_t occ = bytes_nonzero(cnt) & kMsb5;

  // Route computation for new head flits.
  std::uint64_t rt_none = bytes_eq(rt, 0xFF);
  std::uint64_t need = occ & rt_none;
  bool any_routing = false;  // a countdown is still pending after this phase
  while (need) {
    const std::uint32_t i = first_lane(need);
    need &= need - 1;
    const std::uint32_t g = base + i;
    const std::uint64_t w = a_slot_[slot_base(g) + vc_head_[g]];
    if (!slot_head(w)) continue;
    if (!vc_routing_[g]) {
      vc_routing_[g] = 1;
      vc_wait_[g] = params_.route_delay;
      if (vc_wait_[g] != 0) {
        any_routing = true;
        continue;
      }
    } else if (--vc_wait_[g] != 0) {
      any_routing = true;
      continue;
    }
    const auto route =
        static_cast<std::uint8_t>(compute_route(n, pr_dst_[slot_packet(w)]));
    lane_word_set(reinterpret_cast<std::uint8_t*>(vrt), g, route);
    vc_routing_[g] = 0;
    rt = (rt & ~(std::uint64_t{0xFF} << (8 * i))) |
         (std::uint64_t{route} << (8 * i));
    rt_none &= ~(std::uint64_t{0x80} << (8 * i));
  }

  // Output-VC allocation (ascending VC order, like the reference loop).
  std::uint64_t ov_none = bytes_eq(ov, 0xFF);
  std::uint64_t alloc = ~rt_none & ov_none & kMsb5;
  while (alloc) {
    const std::uint32_t i = first_lane(alloc);
    alloc &= alloc - 1;
    const std::uint32_t g = base + i;
    const auto o = static_cast<std::uint32_t>(vrt[g]);
    auto& owner = out_owner_[base + o];
    if (owner == kFree8) {
      owner = static_cast<std::int8_t>(i);
      lane_word_set(reinterpret_cast<std::uint8_t*>(vov), g, 0);
      ov_none &= ~(std::uint64_t{0x80} << (8 * i));
      if (o != static_cast<std::uint32_t>(kPortLocal)) {
        // Resolve the downstream input-VC slot once per packet; every flit
        // of the worm reuses it (hop_flit_packed).
        const std::size_t e = static_cast<std::size_t>(n) * kPorts + o;
        vc_dest_[g] =
            gvc(nbr_node_[e], static_cast<std::uint32_t>(nbr_in_[e]), 0);
      }
      ++activity_.arbitrations;
    }
  }

  // Serve outputs in port order from one snapshot: a served VC's byte
  // matches exactly one output lane, so later outputs are unaffected.
  // Out-VC exclusivity means at most one ready lane per output, so the
  // lanes map 1:1 onto a 5-bit output set served in ascending port order
  // (the reference serving order). The lane->output scatter is a fixed
  // branchless unroll (non-ready lanes land in a junk slot), and the
  // per-output credit test folds into the mask up front, so the only
  // data-dependent branches left are the serve loops themselves.
  bool progress = false;
  bool refused = false;  // the sink turned the eject down
  std::uint8_t new_hint = kNoHint8;
  std::uint32_t ejected = 0;
  const std::uint64_t ready = occ & ~rt_none & ~ov_none;
  if (ready) {
    if ((ready & (ready - 1)) == 0) {
      // One ready lane (the common case): the scatter and the credit fold
      // collapse to a single route-byte and credit-byte test.
      const std::uint32_t i = first_lane(ready);
      const std::uint32_t o = static_cast<std::uint32_t>(rt >> (8 * i)) & 7u;
      const std::uint32_t g = base + i;
      const std::uint64_t w = a_slot_[slot_base(g) + vc_head_[g]];
      const bool tail = slot_tail(w);
      if (o == static_cast<std::uint32_t>(kPortLocal)) {
        progress = eject_flit_packed(n, i, w);
        ejected = progress ? 1u : 0u;
        refused = !progress;
      } else if (credits_[base + o] > 0) {
        hop_flit_packed(n, i, o, w);
        progress = true;
      }
      // Arm the streaming-worm hint when this lane is the only occupied
      // one and its worm continues here (the tail, if any, stayed put).
      if ((occ & ~(std::uint64_t{0x80} << (8 * i))) == 0 &&
          !(progress && tail)) {
        new_hint = static_cast<std::uint8_t>(i | (o << 3));
      }
    } else {
      std::uint8_t lane_for[8];
      std::uint32_t by_o = 0;
      for (std::uint32_t i = 0; i < 5; ++i) {
        const std::uint32_t rb =
            static_cast<std::uint32_t>(ready >> (8 * i + 7)) & 1u;
        // rb == 0 forces o to the junk slot 7 (x | 7 == 7 for x in [0, 7]).
        const std::uint32_t o =
            (static_cast<std::uint32_t>(rt >> (8 * i)) & 7u) |
            ((rb - 1u) & 7u);
        lane_for[o] = static_cast<std::uint8_t>(i);
        by_o |= rb << o;
      }
      const std::uint64_t credw = load_u64(credits_.data() + base);
      const std::uint32_t cred_ok = lane_bits(bytes_nonzero(credw));
      std::uint32_t hops = by_o & cred_ok & 0xFu;
      progress = hops != 0;
      while (hops) {
        const auto o = static_cast<std::uint32_t>(std::countr_zero(hops));
        hops &= hops - 1;
        const std::uint32_t i = lane_for[o];
        const std::uint32_t g = base + i;
        hop_flit_packed(n, i, o, a_slot_[slot_base(g) + vc_head_[g]]);
      }
      if (by_o & 0x10u) {
        const std::uint32_t i = lane_for[4];
        const std::uint32_t g = base + i;
        if (eject_flit_packed(n, i, a_slot_[slot_base(g) + vc_head_[g]])) {
          progress = true;
          ejected = 1;
        } else {
          refused = true;
        }
      }
    }
  }

  // Injection, inlined for V == 1 (queue non-empty checked here; the VC
  // rotation is a no-op with a single local VC). A pending queue also
  // vetoes the streaming hint: the hinted visit skips this check.
  if (q_head_[n] != kNil) new_hint = kNoHint8;
  if (q_head_[n] != kNil && vcnt[base + 4] < depth) {
    const std::uint32_t pkt = q_head_[n];
    const std::uint32_t cur = q_cursor_[n];
    const std::uint32_t nflits = pr_flits_[pkt];
    if (cur == 0) packet_inject_cycle_[pkt] = cycle_;
    arena_push(base + 4, slot_word(pkt, cur, cur >= nflits));
    ++activity_.injected_flits;
    ++in_flight_flits_;
    PSYNC_DCHECK(queued_flits_ > 0);
    --queued_flits_;
    if (cur >= nflits) {  // tail (or head-tail) emitted: next packet
      q_head_[n] = pr_qnext_[pkt];
      if (q_head_[n] == kNil) q_tail_[n] = kNil;
      q_cursor_[n] = 0;
    } else {
      q_cursor_[n] = cur + 1;
    }
    progress = true;
  }

  serve_hint_[n] = new_hint;
  if (progress) {
    activate(n);
    return ejected;
  }
  // Nothing progressed, so cnt/rt stayed as computed above: the keep-awake
  // conditions reduce to register tests. (need == 0 after the routing phase
  // implies no countdown is pending: a counting VC re-enters `need` every
  // cycle until its route resolves.)
  bool keep = q_head_[n] != kNil && ((cnt >> 32) & 0xFF) < depth;
  if (!keep) keep = any_routing;  // a t_r countdown must tick every cycle
  if (keep) {
    activate(n);
  } else if ((occ & bytes_eq(rt, 4)) != 0) {
    // Eject-blocked inputs must retry the sink every cycle; held awake by
    // nothing but a refused eject, the router is a quiet-cycle waiter.
    activate(n);
    if (refused) add_waiter(n);
  }
  return 0;
}

// Flatten the whole per-cycle path into one frame: the router scan keeps a
// cycle's state words in registers, and inlining hop/eject/serve lets them
// stay live across those calls instead of being spilled at each boundary.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((flatten))
#endif
void Mesh::advance(std::int64_t limit) {
  waiters_ = 0;
  wake_ = std::numeric_limits<std::int64_t>::max();

  // Release due packets (in cycle order; push order within a cycle is id
  // order, matching the old priority queue's tiebreak). next_release_due_
  // keeps the calendar queue untouched on the other cycles.
  if (cycle_ >= next_release_due_) {
    release_buf_.clear();
    releases_.pop_due(cycle_, &release_buf_);
    next_release_due_ = releases_.empty()
                            ? std::numeric_limits<std::int64_t>::max()
                            : releases_.next_key(cycle_ + 1);
    for (const Release& rel : release_buf_) {
      enqueue_packet(rel.id);
      activate(pr_src_[rel.id]);
    }
  }

  // Process the active set; the epoch bump retires every stamp at once.
  std::swap(cur_active_, next_active_);
  cur_active_size_ = next_active_size_;
  next_active_size_ = 0;
  ++active_epoch_;

  const NodeId* const act = cur_active_.data();
  if (packed_) {
    // The per-hop and per-eject activity counters batch into one flush
    // here: each hop stages exactly one arrival (one buffer read, one
    // crossbar and one link traversal), each successful eject is one
    // buffer read and one ejected flit. Keeping the uint64 increments out
    // of the serve loops matters because the loops' byte stores alias
    // everything, forcing reloads around every counter bump.
    std::uint32_t ejects = 0;
    for (std::uint32_t k = 0; k < cur_active_size_; ++k) {
      ejects += step_router_packed(act[k]);
    }
    const std::uint64_t hops = staged_.size();
    activity_.buffer_reads += hops + ejects;
    activity_.crossbar_traversals += hops;
    activity_.link_traversals += hops;
    activity_.ejected_flits += ejects;
  } else {
    for (std::uint32_t k = 0; k < cur_active_size_; ++k) {
      step_router_generic(act[k]);
    }
  }

  // Commit link traversals; arrivals wake the receiving router. The flit
  // fields are already in place (hop_flit), so the commit is just the
  // occupancy increment that makes them visible.
  activity_.buffer_writes += staged_.size();
  {
    const Staged* const sp = staged_.data();
    const std::size_t sn = staged_.size();
    for (std::size_t k = 0; k < sn; ++k) {
      PSYNC_DCHECK(vc_count_[sp[k].g] < params_.buffer_depth);
      cnt_add(sp[k].g, 1);
      // An arrival on a different lane ends the receiver's streaming-worm
      // state (kNoHint8 maps to itself, so no-hint stays no-hint).
      const std::uint8_t hv = serve_hint_[sp[k].node];
      serve_hint_[sp[k].node] =
          (hv & 7u) == (sp[k].g & 7u) ? hv : kNoHint8;
      activate(sp[k].node);
    }
  }
  staged_.clear();

  // Credit returns wake the upstream router (targets resolved at push).
  {
    std::uint8_t* const cred = credits_.data();
    const std::uint64_t* const cp = credit_returns_.data();
    const std::size_t cn = credit_returns_.size();
    for (std::size_t k = 0; k < cn; ++k) {
      const std::uint64_t w = cp[k];
      ++cred[w >> 32];
      PSYNC_DCHECK(cred[w >> 32] <= params_.buffer_depth);
      activate(static_cast<NodeId>(w));
    }
  }
  credit_returns_.clear();

  ++cycle_;

  // Quiet-cycle fast-forward. A router that hopped, ejected or injected a
  // flit wakes itself and is never a waiter, and credits and arrivals
  // only follow such moves, so when every router left awake is a waiter,
  // nothing moved and each following cycle repeats the same refusals
  // until either a release fires or a waiter's sink could accept: jump
  // straight to the earlier. No waiters and no release due means nothing
  // is scheduled at all; plain stepping continues then.
  if (idle_skip_ && next_active_size_ == waiters_) {
    const std::int64_t to = std::min(next_release_due_, wake_);
    if (to != std::numeric_limits<std::int64_t>::max()) {
      PSYNC_DCHECK(to >= cycle_);
      cycle_ = std::min(to, limit);
    }
  }
}

void Mesh::step() {
  if (ref_) {
    ref_->step();
    return;
  }
  advance(std::numeric_limits<std::int64_t>::max());
}

bool Mesh::drained() const {
  if (ref_) return ref_->drained();
  return in_flight_flits_ == 0 && releases_.empty() && queued_flits_ == 0;
}

bool Mesh::run_until_drained(std::int64_t max_cycles) {
  if (ref_) return ref_->run_until_drained(max_cycles);
  // Latency records are appended inside the stepping loop; reserving from
  // the in-flight count here keeps reallocation out of the measurement.
  if (record_latencies_) {
    latencies_.reserve(latencies_.size() + in_flight_packets_);
  }
  const std::size_t packets_before = packet_inject_cycle_.size();
  const std::int64_t limit = cycle_ + max_cycles;
  while (!drained() && cycle_ < limit) advance(limit);
  PSYNC_CHECK_MSG(packet_inject_cycle_.size() == packets_before,
                  "packet table resized mid-drain");
  return drained();
}

}  // namespace psync::mesh
