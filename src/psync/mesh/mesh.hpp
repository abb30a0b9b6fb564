// Cycle-level wormhole-routed 2D mesh NoC.
//
// Microarchitecture (paper Section V-C-2):
//   * square mesh, single channel between neighbors, 64-bit flits, one flit
//     crosses a link per cycle;
//   * input-buffered routers with `buffer_depth`-flit FIFOs (paper: 2);
//   * t_r-cycle routing delay for every header flit in every router;
//   * wormhole switching: an output port is held by a packet from its head
//     grant until its tail traverses;
//   * credit-based flow control with one-cycle credit return;
//   * routing: deterministic XY, or minimal-adaptive west-first (deadlock-
//     free turn model) that picks the less congested minimal direction.
//
// Datapath layout: this class is the structure-of-arrays rewrite of the
// retained reference implementation (reference_mesh.hpp). Packet fields
// (src/dst/flit count/payload base/payload words) live in flat parallel
// arrays indexed by packet id, captured at inject() time; a ring slot then
// holds a single packed word — packet id, sequence number, tail bit —
// because every other flit field is a pure function of (packet, seq). A
// link traversal is one 64-bit copy, and the full Flit is reconstructed
// only at the sink boundary. Per-VC routing and allocation state are byte
// arrays contiguous per router, so the hot scans (update_routing /
// serve_outputs / keep-awake) test a whole router's five input VCs with one
// unaligned 64-bit load and SWAR byte masks instead of chasing 40-byte
// Flit copies. Payload words move into an arena at inject() time, so
// nothing vector-sized rides through the release queue.
// Both datapaths are byte-identical by construction and by test
// (test_mesh_soa); set_reference_datapath() routes new Mesh instances
// through the reference stepping path for differential checks.
//
// Ejection at a node goes to a Sink; memory interfaces (memory_interface.hpp)
// and simple consumers implement this interface. Sinks are self-clocked:
// the mesh never ticks them, so per-cycle budgets come from the cycle that
// accept() is given, and Sink::ready_cycle() tells the mesh when a refused
// accept() could next succeed.
//
// Quiet-cycle fast-forward: a cycle is quiet when no flit hopped, ejected
// or injected, no credit came back, and every router left awake is awake
// only to retry an eject its sink refused (no t_r countdown pending, no
// injection possible). Every following cycle repeats those refusals and
// nothing else, so step() jumps to the earlier of the next release and the
// earliest ready_cycle() of the refusing sinks; with no such router, to
// the next release. The skipped cycles change no state, fire no counter
// and make no successful sink call, so results are byte-identical to plain
// stepping (set_idle_skip(false)).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "psync/common/calendar_queue.hpp"
#include "psync/common/stats.hpp"
#include "psync/mesh/flit.hpp"
#include "psync/mesh/mesh_types.hpp"
#include "psync/mesh/reference_mesh.hpp"

namespace psync::mesh {

/// Process-wide toggle: when set, newly constructed Mesh objects delegate
/// every call to the retained reference datapath (reference_mesh.hpp).
/// Snapshotted at construction — flipping it does not affect live meshes.
/// Exists for differential tests and the `*_reference` bench entries; results
/// are byte-identical either way.
void set_reference_datapath(bool on);
bool reference_datapath();

class Mesh {
 public:
  explicit Mesh(MeshParams params);

  const MeshParams& params() const { return params_; }
  std::uint32_t nodes() const { return params_.width * params_.height; }
  std::int64_t cycle() const { return ref_ ? ref_->cycle() : cycle_; }

  NodeId node_at(std::uint32_t x, std::uint32_t y) const;
  std::uint32_t x_of(NodeId n) const { return n % params_.width; }
  std::uint32_t y_of(NodeId n) const { return n / params_.width; }
  std::uint32_t manhattan(NodeId a, NodeId b) const;

  /// Attach a sink to a node's ejection port (replaces the default
  /// ConsumeSink). The mesh keeps a non-owning pointer.
  void set_sink(NodeId node, Sink* sink);

  /// Queue a packet for injection at its source node.
  void inject(const PacketDesc& desc);

  /// Advance one cycle, or further after a quiet cycle.
  void step();

  /// Run until all injected packets are fully ejected or `max_cycles`
  /// elapse (a quiet-cycle jump stops at that limit). Returns true when
  /// drained.
  bool run_until_drained(std::int64_t max_cycles);

  /// Quiet-cycle fast-forward (on by default; see the file comment).
  /// Results are identical either way; the toggle exists so equivalence
  /// tests can force plain stepping.
  void set_idle_skip(bool on) {
    if (ref_) ref_->set_idle_skip(on);
    idle_skip_ = on;
  }
  bool idle_skip() const { return idle_skip_; }

  /// True when no flit is buffered anywhere and no injection is pending.
  bool drained() const;

  const MeshActivity& activity() const {
    return ref_ ? ref_->activity() : activity_;
  }
  /// Packet latency (inject of head to eject of tail), in cycles.
  const RunningStats& packet_latency() const {
    return ref_ ? ref_->packet_latency() : packet_latency_;
  }
  /// Opt-in per-packet latency recording (for histograms); off by default
  /// to keep the big runs lean.
  void record_latencies(bool on) {
    if (ref_) ref_->record_latencies(on);
    record_latencies_ = on;
  }
  const std::vector<double>& latencies() const {
    return ref_ ? ref_->latencies() : latencies_;
  }
  /// Flits currently buffered in the network.
  std::uint64_t in_flight_flits() const {
    return ref_ ? ref_->in_flight_flits() : in_flight_flits_;
  }
  /// Packets injected but whose tail has not yet ejected.
  std::uint64_t in_flight_packets() const {
    return ref_ ? ref_->in_flight_packets() : in_flight_packets_;
  }
  /// True when this instance runs the retained reference datapath (set by
  /// set_reference_datapath() at construction, or forced by parameters the
  /// SoA layout does not encode, e.g. buffer_depth > 255).
  bool using_reference_datapath() const { return ref_ != nullptr; }

 private:
  // Port order: N, E, S, W, LOCAL-in (injection); outputs: N, E, S, W, EJECT.
  static constexpr int kPortN = 0;
  static constexpr int kPortE = 1;
  static constexpr int kPortS = 2;
  static constexpr int kPortW = 3;
  static constexpr int kPortLocal = 4;
  static constexpr int kPorts = 5;
  // Byte-wide sentinels: -1 as 0xFF so SWAR byte masks can test them.
  static constexpr std::int8_t kNoPort8 = -1;
  static constexpr std::int8_t kNoVc8 = -1;
  static constexpr std::int8_t kFree8 = -1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  // packet-list end
  static constexpr std::uint8_t kNoHint8 = 0xFF;      // serve_hint_ empty
  static constexpr std::uint32_t kNoWords = 0xFFFFFFFFu;

  /// Release-queue entry: just the packet id. Every other field of the
  /// original PacketDesc (including its payload vector) was captured into
  /// the pr_* / words_ arenas at inject() time, so releases are POD and the
  /// calendar queue never copies a heap allocation.
  struct Release {
    PacketId id;
  };

  /// A flit crossing a link this cycle. The fields were already written
  /// into the destination ring slot by hop_flit() — they stay invisible
  /// until the count increment commits at end of cycle (head + count is
  /// invariant under pops, so the slot index cannot shift) — leaving only
  /// the destination VC and its router to wake.
  struct Staged {
    std::uint32_t g;  // destination global input-VC index
    NodeId node;
  };

  std::uint32_t vcs() const { return params_.virtual_channels; }
  /// Global input-VC index: router n, port p, VC c. In packed mode the
  /// per-router lane stride is padded to 8 so the scans load one aligned
  /// word per router and lane updates can rewrite the containing word
  /// (keeping store-to-load forwarding size-matched; see lane helpers).
  std::uint32_t gvc(NodeId n, std::uint32_t p, std::uint32_t c) const {
    return n * stride_ + p * vcs() + c;
  }

  // Lane-update helpers for the scanned per-VC byte arrays. Packed mode
  // rewrites the whole (aligned, padded) router word so the next cycle's
  // word load forwards cleanly from the store buffer; a plain byte store
  // followed by a wider load stalls for ~a dozen cycles on current cores.
  static void lane_word_set(std::uint8_t* a, std::uint32_t g, std::uint8_t v);
  void cnt_add(std::uint32_t g, std::uint64_t delta);
  void rt_set(std::uint32_t g, std::uint8_t v);
  void ov_set(std::uint32_t g, std::uint8_t v);
  std::size_t slot_base(std::uint32_t g) const {
    return static_cast<std::size_t>(g) << fifo_shift_;
  }

  // Ring-slot word: packet id in the low half, sequence number in bits
  // [62:32], tail flag in bit 63 (inject() bounds payload_flits to 2^31-1).
  static std::uint64_t slot_word(PacketId packet, std::uint32_t seq,
                                 bool tail) {
    return static_cast<std::uint64_t>(packet) |
           (static_cast<std::uint64_t>(seq) << 32) |
           (static_cast<std::uint64_t>(tail) << 63);
  }
  Flit make_flit(std::uint64_t word) const;

  void arena_push(std::uint32_t g, std::uint64_t word);

  int neighbor(NodeId node, int out_port, NodeId* out_node) const;
  int compute_route(NodeId at, NodeId dst) const;
  // Returns the number of flits ejected this visit (0 or 1); step()
  // batches the per-eject activity counters from the sum.
  std::uint32_t step_router_packed(NodeId n);
  void step_router_generic(NodeId n);
  void update_routing_generic(NodeId n);
  // Sets *refused when the sink turned an eject down.
  bool serve_outputs_generic(NodeId n, bool* refused);
  // Router n stays awake only to retry a refused eject: count it and fold
  // its sink's ready_cycle() into wake_.
  void add_waiter(NodeId n);
  // One cycle of step(); a quiet cycle jumps no further than `limit`.
  void advance(std::int64_t limit);
  bool eject_flit(NodeId n, std::uint32_t i);
  void hop_flit(NodeId n, std::uint32_t i, int o);
  // V == 1 specializations used by step_router_packed(): out-VC is always
  // 0, lane index == input port, and the downstream slot index comes from
  // vc_dest_ instead of the geometry tables.
  bool eject_flit_packed(NodeId n, std::uint32_t i, std::uint64_t w);
  void hop_flit_packed(NodeId n, std::uint32_t i, std::uint32_t o,
                       std::uint64_t word);
  bool serve_injection(NodeId n);
  void activate(NodeId n);
  void enqueue_packet(PacketId id);

  MeshParams params_;
  // Delegation target when the reference datapath is selected; every public
  // method forwards when non-null.
  std::unique_ptr<ReferenceMesh> ref_;

  std::uint32_t vc_total_ = 0;  // kPorts * virtual_channels
  std::uint32_t stride_ = 0;    // lane stride per router (8 when packed)
  std::uint32_t fifo_cap_ = 0;  // bit_ceil(buffer_depth)
  std::uint32_t fifo_mask_ = 0;
  std::uint32_t fifo_shift_ = 0;  // log2(fifo_cap_)
  bool packed_ = false;  // V == 1 SWAR fast path (little-endian only)

  // Flit arena: ring slot s = slot_base(g) + pos holds one packed
  // (packet, seq, tail) word; see slot_word() / make_flit().
  std::vector<std::uint64_t> a_slot_;

  // Per input VC, indexed by gvc(); byte arrays are padded by 8 so the SWAR
  // loads at the last router stay in bounds.
  std::vector<std::uint8_t> vc_head_;
  std::vector<std::uint8_t> vc_count_;
  std::vector<std::int8_t> vc_route_;    // kNoPort8 or output port
  std::vector<std::int8_t> vc_outvc_;    // kNoVc8 or downstream VC
  std::vector<std::uint8_t> vc_routing_; // t_r countdown in progress
  std::vector<std::uint32_t> vc_wait_;   // remaining t_r cycles

  // Per output VC (same indexing as input VCs).
  std::vector<std::int8_t> out_owner_;   // holding input-VC index or kFree8
  std::vector<std::uint8_t> credits_;    // toward the downstream buffer

  // Geometry tables, per (router, output port): downstream node and its
  // receiving port (-1 at a mesh edge). x_/y_ cache the coordinate split so
  // the hot paths never divide by the mesh width. cr_upcred_, per (router,
  // input port), resolves a credit return at push time: the upstream
  // credits_ index (for VC 0) in the high half, the upstream node id in the
  // low half.
  std::vector<NodeId> nbr_node_;
  std::vector<std::int8_t> nbr_in_;
  std::vector<std::uint32_t> x_;
  std::vector<std::uint32_t> y_;
  std::vector<std::uint64_t> cr_upcred_;
  // Packed mode: downstream global input-VC index per lane, resolved once
  // at out-VC allocation so the per-flit hop path never touches the
  // geometry tables. Valid only while the lane holds an allocated out-VC.
  std::vector<std::uint32_t> vc_dest_;
  // Packed mode, per node: `lane | out_port << 3` while the router is in
  // the streaming-worm state (exactly one occupied lane, routed and
  // allocated, empty inject queue), else kNoHint8. A hinted visit serves
  // that worm directly and skips the route/allocate/inject scan entirely;
  // the hint is dropped on a tail, a cross-lane arrival (end-of-cycle
  // commit), or a packet entering the node's inject queue.
  std::vector<std::uint8_t> serve_hint_;

  // Round-robin pointers, per (router, output port); generic path only —
  // with one VC per port every output has at most one allocated candidate,
  // so the packed path never consults them.
  std::vector<std::uint8_t> rr_next_;
  std::vector<std::uint8_t> vc_rr_;
  std::vector<std::uint8_t> inject_vc_rr_;  // per node

  // Packet records, indexed by PacketId: everything inject() captured from
  // the PacketDesc. pr_word_ points into words_ (kNoWords = synthesize
  // payload_base + i); pr_qnext_ is the intrusive inject-queue link.
  std::vector<NodeId> pr_src_;
  std::vector<NodeId> pr_dst_;
  std::vector<std::uint32_t> pr_flits_;  // payload flits (0 = head-tail)
  std::vector<std::uint64_t> pr_base_;
  std::vector<std::uint32_t> pr_word_;
  std::vector<std::uint32_t> pr_qnext_;
  std::vector<std::uint64_t> words_;  // payload word arena

  // Inject queues: one intrusive packet FIFO per (node, local VC), plus the
  // next flit seq to synthesize for the head packet.
  std::vector<std::uint32_t> q_head_;
  std::vector<std::uint32_t> q_tail_;
  std::vector<std::uint32_t> q_cursor_;
  std::uint64_t queued_flits_ = 0;

  CalendarQueue<Release> releases_;
  std::vector<Release> release_buf_;  // scratch for pop_due, reused
  // Smallest key in releases_ (INT64_MAX when empty), so the per-cycle path
  // touches the calendar queue only on cycles with a due release.
  std::int64_t next_release_due_ = std::numeric_limits<std::int64_t>::max();
  std::vector<Staged> staged_;
  // Credit returns, resolved at push: cr_upcred_ entry + (vc << 32).
  std::vector<std::uint64_t> credit_returns_;

  // Activity-gated simulation: only routers in the active set are stepped.
  // A router is in next_active_ iff its stamp equals active_epoch_ + 1; the
  // epoch bump at each step() retires the whole set without a clear loop.
  // The lists are sized nodes()+1 up front and filled through a manual
  // cursor so activate() can be branchless (see its definition).
  std::vector<NodeId> cur_active_;
  std::vector<NodeId> next_active_;
  std::uint32_t cur_active_size_ = 0;
  std::uint32_t next_active_size_ = 0;
  std::vector<std::uint64_t> active_stamp_;
  std::uint64_t active_epoch_ = 0;

  // Packet bookkeeping for latency stats: inject cycle by packet id.
  std::vector<std::int64_t> packet_inject_cycle_;
  RunningStats packet_latency_;
  bool record_latencies_ = false;
  std::vector<double> latencies_;

  std::vector<Sink*> sinks_;
  // Cached Sink::as_consume() downcast per node; non-null lets the ejection
  // path take ConsumeSink::accept_fast() when the sink is not logging.
  std::vector<ConsumeSink*> consume_sink_;
  std::vector<std::unique_ptr<ConsumeSink>> default_sinks_;

  // Quiet-cycle state, reset by every advance(): routers kept awake only
  // by a refused eject, and the earliest ready_cycle() of their sinks.
  std::uint32_t waiters_ = 0;
  std::int64_t wake_ = std::numeric_limits<std::int64_t>::max();

  std::int64_t cycle_ = 0;
  std::uint64_t in_flight_flits_ = 0;
  std::uint64_t in_flight_packets_ = 0;
  bool idle_skip_ = true;
  MeshActivity activity_;
};

}  // namespace psync::mesh
