#include "psync/mesh/reference_mesh.hpp"

#include <algorithm>
#include <bit>

#include "psync/common/check.hpp"

namespace psync::mesh {

namespace {
constexpr int opposite(int port) {
  switch (port) {
    case 0: return 2;  // N <-> S
    case 1: return 3;  // E <-> W
    case 2: return 0;
    case 3: return 1;
    default: return -1;
  }
}
}  // namespace

ReferenceMesh::ReferenceMesh(MeshParams params) : params_(params) {
  if (params_.width == 0 || params_.height == 0) {
    throw SimulationError("Mesh: dimensions must be positive");
  }
  if (params_.buffer_depth == 0) {
    throw SimulationError("Mesh: buffer depth must be positive");
  }
  if (params_.virtual_channels == 0 || params_.virtual_channels > 16) {
    throw SimulationError("Mesh: virtual channels must be in [1, 16]");
  }
  const auto n = nodes();
  const int v = vcs();
  const std::uint32_t fifo_cap = std::bit_ceil(params_.buffer_depth);
  fifo_mask_ = fifo_cap - 1;
  routers_.resize(n);
  sinks_.resize(n, nullptr);
  default_sinks_.resize(n);
  inject_queues_.resize(static_cast<std::size_t>(n) * v);
  inject_vc_rr_.assign(n, 0);
  in_next_active_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    Router& r = routers_[i];
    r.in.resize(static_cast<std::size_t>(kPorts) * v);
    r.out_owner.assign(static_cast<std::size_t>(kPorts) * v, kFree);
    r.credits.assign(static_cast<std::size_t>(kPorts) * v, 0);
    for (int p = 0; p < kPorts; ++p) {
      r.rr_next[p] = 0;
      r.vc_rr[p] = 0;
      NodeId dummy;
      const bool has_neighbor = p < kPortLocal && neighbor(i, p, &dummy) >= 0;
      for (int c = 0; c < v; ++c) {
        r.in[static_cast<std::size_t>(ivc(p, c))].fifo.resize(fifo_cap);
        // Credits exist only toward real neighbors; eject has none.
        if (has_neighbor) {
          r.credits[static_cast<std::size_t>(ivc(p, c))] =
              static_cast<std::uint16_t>(params_.buffer_depth);
        }
      }
    }
    default_sinks_[i] = std::make_unique<ConsumeSink>();
    sinks_[i] = default_sinks_[i].get();
  }
  staged_.reserve(n);
  credit_returns_.reserve(n);
  cur_active_.reserve(n);
  next_active_.reserve(n);
}

NodeId ReferenceMesh::node_at(std::uint32_t x, std::uint32_t y) const {
  PSYNC_CHECK(x < params_.width && y < params_.height);
  return y * params_.width + x;
}

std::uint32_t ReferenceMesh::manhattan(NodeId a, NodeId b) const {
  const auto dx = static_cast<std::int64_t>(x_of(a)) - x_of(b);
  const auto dy = static_cast<std::int64_t>(y_of(a)) - y_of(b);
  return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

void ReferenceMesh::set_sink(NodeId node, Sink* sink) {
  PSYNC_CHECK(node < nodes());
  PSYNC_CHECK(sink != nullptr);
  sinks_[node] = sink;
}

void ReferenceMesh::fifo_push(InputVc& p, const Flit& f) {
  PSYNC_CHECK_MSG(p.count < params_.buffer_depth, "input FIFO overflow");
  p.fifo[fifo_index(p.head + p.count)] = f;
  ++p.count;
  ++activity_.buffer_writes;
}

Flit ReferenceMesh::fifo_pop(InputVc& p) {
  PSYNC_CHECK(p.count > 0);
  Flit f = p.fifo[p.head];
  p.head = fifo_index(p.head + 1);
  --p.count;
  ++activity_.buffer_reads;
  return f;
}

int ReferenceMesh::neighbor(NodeId node, int out_port, NodeId* out_node) const {
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

int ReferenceMesh::compute_route(NodeId at, const Flit& head,
                                 const Router& r) const {
  const auto dx = static_cast<std::int64_t>(x_of(head.dst)) - x_of(at);
  const auto dy = static_cast<std::int64_t>(y_of(head.dst)) - y_of(at);
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
  int best = kNoPort;
  int best_credits = -1;
  auto consider = [&](int port) {
    int c = 0;
    for (int vc = 0; vc < vcs(); ++vc) {
      c += r.credits[static_cast<std::size_t>(ivc(port, vc))];
    }
    if (c > best_credits) {
      best_credits = c;
      best = port;
    }
  };
  if (dx > 0) consider(kPortE);
  if (dy > 0) consider(kPortS);
  if (dy < 0) consider(kPortN);
  PSYNC_CHECK(best != kNoPort);
  return best;
}

void ReferenceMesh::update_routing(Router& r, NodeId n) {
  const int total = kPorts * vcs();
  for (int i = 0; i < total; ++i) {
    InputVc& ip = r.in[static_cast<std::size_t>(i)];
    // Route computation for a new head flit at the FIFO front.
    if (ip.count > 0 && ip.route_out == kNoPort &&
        fifo_front(ip).is_head()) {
      if (!ip.routing) {
        ip.routing = true;
        ip.route_wait = params_.route_delay;
        if (ip.route_wait == 0) {
          ip.route_out = compute_route(n, fifo_front(ip), r);
          ip.routing = false;
        }
      } else {
        --ip.route_wait;
        if (ip.route_wait == 0) {
          ip.route_out = compute_route(n, fifo_front(ip), r);
          ip.routing = false;
        }
      }
    }
    // Output-VC allocation once the route is known. The eject "output" has
    // a single lock (VC 0) so packets never interleave at a sink.
    if (ip.route_out != kNoPort && ip.out_vc == kNoVc) {
      const int o = ip.route_out;
      const int limit = o == kPortLocal ? 1 : vcs();
      const int start = o == kPortLocal ? 0 : r.vc_rr[o];
      for (int k = 0; k < limit; ++k) {
        int cand = start + k;
        if (cand >= limit) cand -= limit;
        auto& owner = r.out_owner[static_cast<std::size_t>(ivc(o, cand))];
        if (owner == kFree) {
          owner = static_cast<std::int16_t>(i);
          ip.out_vc = cand;
          if (o != kPortLocal) {
            const int nxt = cand + 1;
            r.vc_rr[o] = static_cast<std::uint8_t>(nxt >= limit ? 0 : nxt);
          }
          ++activity_.arbitrations;
          break;
        }
      }
    }
  }
}

bool ReferenceMesh::serve_outputs(NodeId n, Router& r) {
  bool progress = false;
  const int total = kPorts * vcs();
  for (int o = 0; o < kPorts; ++o) {
    // Switch allocation: one flit per output per cycle, round-robin over
    // input VCs holding an allocated out-VC toward this output.
    int chosen = -1;
    for (int k = 0; k < total; ++k) {
      int i = r.rr_next[o] + k;
      if (i >= total) i -= total;
      const InputVc& ip = r.in[static_cast<std::size_t>(i)];
      if (ip.count == 0 || ip.route_out != o || ip.out_vc == kNoVc) continue;
      if (o == kPortLocal) {
        chosen = i;
        break;
      }
      if (r.credits[static_cast<std::size_t>(ivc(o, ip.out_vc))] > 0) {
        chosen = i;
        break;
      }
    }
    if (chosen < 0) continue;
    InputVc& ip = r.in[static_cast<std::size_t>(chosen)];

    if (o == kPortLocal) {
      const Flit& front = fifo_front(ip);
      if (!sinks_[n]->accept(front, cycle_)) continue;
      const Flit f = fifo_pop(ip);
      progress = true;
      const int next_rr = chosen + 1;
      r.rr_next[o] = static_cast<std::uint8_t>(next_rr >= total ? 0 : next_rr);
      ++activity_.ejected_flits;
      const int in_port = chosen / vcs();
      if (in_port < kPortLocal) {
        credit_returns_.push_back(CreditReturn{n, in_port, chosen % vcs()});
      }
      if (f.is_tail()) {
        r.out_owner[static_cast<std::size_t>(ivc(o, ip.out_vc))] = kFree;
        ip.route_out = kNoPort;
        ip.out_vc = kNoVc;
        ++activity_.ejected_packets;
        const auto lat =
            static_cast<double>(cycle_ - packet_inject_cycle_[f.packet]);
        packet_latency_.add(lat);
        if (record_latencies_) latencies_.push_back(lat);
        PSYNC_CHECK(in_flight_packets_ > 0);
        --in_flight_packets_;
      }
      PSYNC_CHECK(in_flight_flits_ > 0);
      --in_flight_flits_;
    } else {
      NodeId next_node;
      const int next_in = neighbor(n, o, &next_node);
      PSYNC_CHECK_MSG(next_in >= 0, "flit routed off the mesh edge");
      const int out_vc = ip.out_vc;
      const Flit f = fifo_pop(ip);
      progress = true;
      const int next_rr = chosen + 1;
      r.rr_next[o] = static_cast<std::uint8_t>(next_rr >= total ? 0 : next_rr);
      --r.credits[static_cast<std::size_t>(ivc(o, out_vc))];
      ++activity_.crossbar_traversals;
      ++activity_.link_traversals;
      const int in_port = chosen / vcs();
      if (in_port < kPortLocal) {
        credit_returns_.push_back(CreditReturn{n, in_port, chosen % vcs()});
      }
      staged_.push_back(Staged{f, next_node, next_in, out_vc});
      if (f.is_tail()) {
        r.out_owner[static_cast<std::size_t>(ivc(o, out_vc))] = kFree;
        ip.route_out = kNoPort;
        ip.out_vc = kNoVc;
      }
    }
  }
  return progress;
}

bool ReferenceMesh::serve_injection(NodeId n) {
  // One flit per cycle total across the node's local VCs, round-robin.
  Router& r = routers_[n];
  for (int k = 0; k < vcs(); ++k) {
    int vc = inject_vc_rr_[n] + k;
    if (vc >= vcs()) vc -= vcs();
    auto& q = inject_queues_[static_cast<std::size_t>(n) * vcs() + vc];
    if (q.empty()) continue;
    InputVc& ip = r.in[static_cast<std::size_t>(ivc(kPortLocal, vc))];
    if (fifo_full(ip)) continue;
    const Flit f = q.front();
    q.pop_front();
    PSYNC_CHECK(queued_flits_ > 0);
    --queued_flits_;
    if (f.is_head()) packet_inject_cycle_[f.packet] = cycle_;
    fifo_push(ip, f);
    ++activity_.injected_flits;
    ++in_flight_flits_;
    const int next_vc = vc + 1;
    inject_vc_rr_[n] = static_cast<std::uint8_t>(next_vc >= vcs() ? 0 : next_vc);
    return true;
  }
  return false;
}

void ReferenceMesh::activate(NodeId n) {
  if (!in_next_active_[n]) {
    in_next_active_[n] = 1;
    next_active_.push_back(n);
  }
}

void ReferenceMesh::inject(const PacketDesc& desc) {
  PSYNC_CHECK(desc.src < nodes());
  PSYNC_CHECK(desc.dst < nodes());
  const PacketId id = static_cast<PacketId>(packet_inject_cycle_.size());
  packet_inject_cycle_.push_back(-1);
  ++activity_.injected_packets;
  ++in_flight_packets_;
  if (desc.release_cycle <= cycle_) {
    expand_packet(id, desc);
    activate(desc.src);
  } else {
    releases_.push(desc.release_cycle, Release{desc.release_cycle, id, desc});
  }
}

void ReferenceMesh::expand_packet(PacketId id, const PacketDesc& desc) {
  PSYNC_CHECK_MSG(desc.words.empty() || desc.words.size() == desc.payload_flits,
                  "PacketDesc.words size must match payload_flits");
  queued_flits_ += desc.payload_flits == 0 ? 1 : desc.payload_flits + 1;
  // Assign the whole packet to one local VC, rotating per packet.
  const int vc = static_cast<int>(id) % vcs();
  auto& q = inject_queues_[static_cast<std::size_t>(desc.src) * vcs() + vc];
  if (desc.payload_flits == 0) {
    q.push_back(
        Flit{id, desc.src, desc.dst, 0, FlitKind::kHeadTail, desc.payload_base});
    return;
  }
  q.push_back(Flit{id, desc.src, desc.dst, 0, FlitKind::kHead, desc.payload_base});
  for (std::uint32_t i = 0; i < desc.payload_flits; ++i) {
    const bool last = (i + 1 == desc.payload_flits);
    q.push_back(Flit{id, desc.src, desc.dst, i + 1,
                     last ? FlitKind::kTail : FlitKind::kBody,
                     desc.words.empty() ? desc.payload_base + i : desc.words[i]});
  }
}

void ReferenceMesh::step() {
  // Release due packets (in cycle order; push order within a cycle is id
  // order, matching the old priority queue's tiebreak).
  if (!releases_.empty()) {
    release_buf_.clear();
    releases_.pop_due(cycle_, &release_buf_);
    for (const Release& rel : release_buf_) {
      expand_packet(rel.id, rel.desc);
      activate(rel.desc.src);
    }
  }

  // Process the active set.
  std::swap(cur_active_, next_active_);
  next_active_.clear();
  for (NodeId n : cur_active_) in_next_active_[n] = 0;

  for (NodeId n : cur_active_) {
    Router& r = routers_[n];
    update_routing(r, n);
    bool progress = serve_outputs(n, r);
    progress |= serve_injection(n);

    // Sources with pending injections stay active only while some local
    // input VC has room; once all are full they sleep until a pop at this
    // router (progress) frees a slot.
    bool keep = progress;
    if (!keep) {
      for (int vc = 0; vc < vcs() && !keep; ++vc) {
        if (!inject_queues_[static_cast<std::size_t>(n) * vcs() + vc].empty() &&
            !fifo_full(r.in[static_cast<std::size_t>(ivc(kPortLocal, vc))])) {
          keep = true;
        }
      }
    }
    if (!keep) {
      const int total = kPorts * vcs();
      for (int i = 0; i < total && !keep; ++i) {
        const InputVc& ip = r.in[static_cast<std::size_t>(i)];
        if (ip.routing) keep = true;  // countdown must tick every cycle
        // (A head waiting for a busy out-VC needs no polling: the VC frees
        // when the holder's tail pops at THIS router, which is progress and
        // keeps the router active for the next cycle's allocation.)
        // Eject-blocked inputs must retry the sink every cycle.
        if (ip.count > 0 && ip.route_out == kPortLocal) keep = true;
      }
    }
    if (keep) activate(n);
  }

  // Commit link traversals; arrivals wake the receiving router.
  for (const Staged& s : staged_) {
    fifo_push(routers_[s.node].in[static_cast<std::size_t>(ivc(s.in_port, s.vc))],
              s.flit);
    activate(s.node);
  }
  staged_.clear();

  // Credit returns wake the upstream router.
  for (const CreditReturn& cr : credit_returns_) {
    NodeId up;
    const int up_in = neighbor(cr.node, cr.in_port, &up);
    PSYNC_CHECK(up_in >= 0);
    (void)up_in;
    Router& u = routers_[up];
    const int up_out = opposite(cr.in_port);
    auto& credit = u.credits[static_cast<std::size_t>(ivc(up_out, cr.vc))];
    ++credit;
    PSYNC_CHECK(credit <= params_.buffer_depth);
    activate(up);
  }
  credit_returns_.clear();

  ++cycle_;
}

bool ReferenceMesh::drained() const {
  return in_flight_flits_ == 0 && releases_.empty() && queued_flits_ == 0;
}

bool ReferenceMesh::run_until_drained(std::int64_t max_cycles) {
  // Latency records are appended inside the stepping loop; reserving from
  // the in-flight count here keeps reallocation out of the measurement.
  if (record_latencies_) {
    latencies_.reserve(latencies_.size() + in_flight_packets_);
  }
  const std::size_t packets_before = packet_inject_cycle_.size();
  const std::int64_t limit = cycle_ + max_cycles;
  while (!drained() && cycle_ < limit) {
    // Idle fast-forward: with no flit buffered, nothing queued for
    // injection, and no router scheduled to wake, the network state cannot
    // change until the next release fires — every intervening step() would
    // be a no-op (sinks are quiescent when nothing is in flight). Jump
    // straight to that cycle.
    if (idle_skip_ && in_flight_flits_ == 0 && queued_flits_ == 0 &&
        next_active_.empty() && !releases_.empty()) {
      const std::int64_t next_release = releases_.next_key(cycle_);
      if (next_release > cycle_) {
        cycle_ = next_release < limit ? next_release : limit;
        continue;
      }
    }
    step();
  }
  PSYNC_CHECK_MSG(packet_inject_cycle_.size() == packets_before,
                  "packet table resized mid-drain");
  return drained();
}

}  // namespace psync::mesh
