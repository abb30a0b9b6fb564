// Retained reference datapath for the mesh NoC: the original array-of-structs
// implementation (per-VC std::vector<Flit> ring buffers, std::deque inject
// queues, PacketDesc copies through the release queue).
//
// The production datapath in mesh.hpp is a structure-of-arrays rewrite of
// this class; the differential suite (test_mesh_soa) asserts the two produce
// byte-identical event traces, stats, and sink logs, and bench_driver's
// `*_reference` entries measure this path so speedups stay honest. Keep the
// stepping semantics here frozen unless the model itself changes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "psync/common/calendar_queue.hpp"
#include "psync/common/stats.hpp"
#include "psync/mesh/mesh_types.hpp"

namespace psync::mesh {

class ReferenceMesh {
 public:
  explicit ReferenceMesh(MeshParams params);

  const MeshParams& params() const { return params_; }
  std::uint32_t nodes() const { return params_.width * params_.height; }
  std::int64_t cycle() const { return cycle_; }

  NodeId node_at(std::uint32_t x, std::uint32_t y) const;
  std::uint32_t x_of(NodeId n) const { return n % params_.width; }
  std::uint32_t y_of(NodeId n) const { return n / params_.width; }
  std::uint32_t manhattan(NodeId a, NodeId b) const;

  void set_sink(NodeId node, Sink* sink);
  void inject(const PacketDesc& desc);
  void step();
  bool run_until_drained(std::int64_t max_cycles);

  void set_idle_skip(bool on) { idle_skip_ = on; }
  bool idle_skip() const { return idle_skip_; }

  bool drained() const;

  const MeshActivity& activity() const { return activity_; }
  const RunningStats& packet_latency() const { return packet_latency_; }
  void record_latencies(bool on) { record_latencies_ = on; }
  const std::vector<double>& latencies() const { return latencies_; }
  std::uint64_t in_flight_flits() const { return in_flight_flits_; }
  std::uint64_t in_flight_packets() const { return in_flight_packets_; }

 private:
  // Port order: N, E, S, W, LOCAL-in (injection); outputs: N, E, S, W, EJECT.
  static constexpr int kPortN = 0;
  static constexpr int kPortE = 1;
  static constexpr int kPortS = 2;
  static constexpr int kPortW = 3;
  static constexpr int kPortLocal = 4;
  static constexpr int kPorts = 5;
  static constexpr int kNoPort = -1;
  static constexpr int kNoVc = -1;
  static constexpr std::int16_t kFree = -1;

  /// One virtual channel of one input port: its own FIFO and per-packet
  /// routing/allocation state.
  struct InputVc {
    std::vector<Flit> fifo;   // ring buffer, capacity = buffer_depth
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    // State for the packet at the FIFO front.
    int route_out = kNoPort;        // decided output, or kNoPort
    int out_vc = kNoVc;             // allocated downstream VC
    std::uint32_t route_wait = 0;   // remaining t_r cycles
    bool routing = false;           // countdown in progress
  };

  struct Router {
    std::vector<InputVc> in;             // kPorts * V input VCs
    std::vector<std::int16_t> out_owner; // kPorts * V: holding in-VC index
    std::vector<std::uint16_t> credits;  // kPorts * V toward downstream
    std::uint8_t rr_next[kPorts];        // switch round-robin per output
    std::uint8_t vc_rr[kPorts];          // out-VC allocation round-robin
  };

  struct Staged {
    Flit flit;
    NodeId node;
    int in_port;
    int vc;
  };

  struct Release {
    std::int64_t cycle;
    PacketId id;
    PacketDesc desc;
  };

  int vcs() const { return static_cast<int>(params_.virtual_channels); }
  int ivc(int port, int vc) const { return port * vcs() + vc; }

  bool fifo_full(const InputVc& p) const { return p.count >= params_.buffer_depth; }
  std::uint32_t fifo_index(std::uint32_t slot) const { return slot & fifo_mask_; }
  const Flit& fifo_front(const InputVc& p) const { return p.fifo[p.head]; }
  void fifo_push(InputVc& p, const Flit& f);
  Flit fifo_pop(InputVc& p);

  int neighbor(NodeId node, int out_port, NodeId* out_node) const;
  int compute_route(NodeId at, const Flit& head, const Router& r) const;
  void update_routing(Router& r, NodeId n);
  bool serve_outputs(NodeId n, Router& r);
  bool serve_injection(NodeId n);
  void activate(NodeId n);
  void expand_packet(PacketId id, const PacketDesc& desc);

  MeshParams params_;
  std::vector<Router> routers_;
  std::vector<Sink*> sinks_;
  std::vector<std::unique_ptr<ConsumeSink>> default_sinks_;
  // Expanded flits awaiting injection, one queue per (node, local VC);
  // packets are assigned to local VCs round-robin.
  std::vector<std::deque<Flit>> inject_queues_;  // nodes * V
  std::vector<std::uint8_t> inject_vc_rr_;       // per node
  std::uint64_t queued_flits_ = 0;
  // Future-release packets, keyed by release cycle. Packet ids are assigned
  // in inject() order, so push order doubles as the id tiebreak the old
  // priority queue used.
  CalendarQueue<Release> releases_;
  std::vector<Release> release_buf_;  // scratch for pop_due, reused
  std::vector<Staged> staged_;
  struct CreditReturn {
    NodeId node;
    int in_port;
    int vc;
  };
  std::vector<CreditReturn> credit_returns_;

  // Activity-gated simulation: only routers in the active set are stepped.
  std::vector<NodeId> cur_active_;
  std::vector<NodeId> next_active_;
  std::vector<std::uint8_t> in_next_active_;

  // Packet bookkeeping for latency stats: inject cycle by packet id.
  std::vector<std::int64_t> packet_inject_cycle_;
  RunningStats packet_latency_;
  bool record_latencies_ = false;
  std::vector<double> latencies_;

  std::int64_t cycle_ = 0;
  std::uint64_t in_flight_flits_ = 0;
  std::uint64_t in_flight_packets_ = 0;
  // FIFO rings are sized to bit_ceil(buffer_depth) so ring indices wrap with
  // a mask instead of an integer divide; logical capacity is unchanged.
  std::uint32_t fifo_mask_ = 0;
  bool idle_skip_ = true;
  MeshActivity activity_;
};

}  // namespace psync::mesh
