// The leader<->worker wire: one frame protocol, two ways to connect.
//
// Every worker speaks length-prefixed frames (frame.hpp) to its leader:
// heartbeat lines flow up as heartbeat frames, and each completed point's
// journal record is shipped as a journal frame that the leader appends to
// the campaign's one journal (fsync before the ack). The leader is the
// only journal writer — journal-remains-truth, and the output stays
// crash-identical. Only connection setup differs:
//
//   inherited  TransportKind::kPipe. The leader makes a socketpair per
//              launch; the worker is born connected to it (fork inherits
//              the fd, an exec'd psync_sim gets it as --link-fd N). No
//              handshake, no reconnect: the peer going away means the
//              leader is gone, so EOF or a send error is fatal and
//              cancels the worker.
//   dialed     TransportKind::kSocket. The worker dials the leader's TCP
//              listener and opens with a HELLO claiming (shard, epoch).
//
// Dialed-link robustness lives here, worker-side:
//
//   * Reconnect with decorrelated-jitter backoff (backoff.hpp). A broken
//     connection is not a death sentence — the worker keeps computing and
//     keeps trying; completed records queue as unacked.
//   * At-least-once journal shipping (both link kinds): every record is
//     retransmitted until the leader acks it (on reconnect, and
//     periodically against drops). The leader dedups by index, so
//     retransmission is idempotent.
//   * Lease-epoch fencing: the leader issued the HELLO's epoch for exactly
//     one launch and revokes it when it gives the shard away; a zombie
//     worker reconnecting after its partition healed is answered
//     "fenced", its link goes permanently dead, and it can never
//     double-write a shard someone else now owns.
//   * ChaosTransport (chaos.hpp) decorates the outbound frame path for
//     deterministic fault injection in tests and the net-chaos smoke. On
//     an inherited link a chaos partition ends the link for good.
//
// Leader-side state (who owns which epoch) is EpochLedger, kept here so
// the fencing decision is a pure, unit-testable object instead of
// supervisor plumbing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "psync/common/cancel.hpp"
#include "psync/dist/backoff.hpp"
#include "psync/dist/chaos.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"

namespace psync::dist {

/// How a supervisor connects its workers. Both speak the same frames.
enum class TransportKind {
  kPipe,    // forked workers on an inherited socketpair
  kSocket,  // TCP listener: workers dial back (remote-capable)
};

struct WorkerLinkOptions {
  /// Inherited, already-connected stream socket (>= 0), which the link
  /// then owns; otherwise the link dials host:port.
  int fd = -1;
  std::string host;
  std::uint16_t port = 0;
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  /// Reconnect backoff band (decorrelated jitter) and its seed.
  double reconnect_base_ms = 20.0;
  double reconnect_cap_ms = 1000.0;
  std::uint64_t reconnect_seed = 1;
  /// Unacked journal records are retransmitted this often (drop defense).
  double resend_ms = 250.0;
  /// How long to wait for the leader's hello-ack before treating the
  /// connection attempt as failed.
  double handshake_timeout_ms = 2000.0;
  /// Seeded outbound fault injection (tests, smoke); seed 0 = off.
  ChaosOptions chaos;
};

/// What a worker process writes to. Thread-safe: the heartbeat timer
/// thread and the sweep thread both call in.
class WorkerLink {
 public:
  /// A dialed link attempts its first connection immediately (failures
  /// just schedule a retry). `on_dead` (may be nullptr) is cancelled when
  /// the link goes permanently dead — the leader refused this epoch, or
  /// an inherited link lost its peer — and the worker must stop.
  WorkerLink(const WorkerLinkOptions& opts, CancelToken* on_dead);
  ~WorkerLink();
  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;

  /// Emit one heartbeat. Returns false once the link is dead().
  bool send_heartbeat(const Heartbeat& hb);
  /// Queue one completed point's journal line until the leader acks it.
  void send_journal(std::size_t index, const std::string& line);
  /// Permanently dead: fenced, or an inherited link whose leader is gone.
  [[nodiscard]] bool dead() const;
  /// Dead because the leader refused this worker's epoch.
  [[nodiscard]] bool fenced() const;
  /// Journal records shipped but not yet acked durable by the leader.
  [[nodiscard]] std::size_t unacked() const;
  /// Block until every queued journal record is acked or `timeout_ms`
  /// passes (pumping I/O while waiting). True when the queue drained.
  bool flush(double timeout_ms);

 private:
  double now_ms() const;
  /// Reconnect / drain acks / retransmit / release chaos holds. The
  /// heartbeat timer thread calls this every interval, so the link makes
  /// progress even while the sweep thread computes one long point.
  void pump_locked(double now);
  bool ensure_connected_locked(double now);
  void drain_locked(double now);
  void transmit_locked(const Frame& frame, double now);
  void raw_send_locked(const std::string& wire, double now);
  void disconnect_locked(double now);
  void die_locked();

  WorkerLinkOptions opts_;
  CancelToken* const on_dead_;
  const bool inherited_;
  mutable std::mutex mu_;
  int fd_ = -1;
  FrameDecoder decoder_;
  ChaosTransport chaos_;
  DecorrelatedBackoff backoff_;
  std::chrono::steady_clock::time_point t0_;
  double next_connect_ms_ = 0.0;
  bool dead_ = false;
  bool fenced_ = false;
  struct Pending {
    std::string line;
    double last_sent_ms = -1.0;  // < 0: never transmitted
  };
  std::map<std::size_t, Pending> unacked_;
};

/// Leader-side lease ledger: which (shard, epoch) claims are currently
/// valid. One epoch is issued per launch and revoked when the launch's
/// seat moves on (exit handled, shard stolen, connection-loss relaunch);
/// a HELLO claiming a revoked epoch is fenced.
class EpochLedger {
 public:
  /// Mint the epoch for a new launch of `shard`. Epochs are unique across
  /// the ledger's lifetime and never reused.
  std::uint64_t issue(std::size_t shard);
  /// The launch is over; any future claim of this epoch is a zombie.
  void revoke(std::uint64_t epoch);
  [[nodiscard]] bool valid(std::uint64_t epoch) const;
  /// The shard an active epoch was issued for (epoch must be valid()).
  [[nodiscard]] std::size_t shard_of(std::uint64_t epoch) const;
  [[nodiscard]] std::size_t active() const { return active_.size(); }

 private:
  std::uint64_t next_ = 1;
  std::map<std::uint64_t, std::size_t> active_;
};

// --- TCP plumbing ------------------------------------------------------

/// Bind + listen on host:port (port 0 = ephemeral; the chosen port comes
/// back through *actual_port). Returns the nonblocking listen fd; throws
/// SimulationError on failure.
int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* actual_port);

/// Blocking connect; returns the fd or -1 (errno holds the reason).
int tcp_connect(const std::string& host, std::uint16_t port);

/// Parse "host:port" or bare "port" (host defaults to 127.0.0.1).
bool parse_host_port(const std::string& s, std::string* host,
                     std::uint16_t* port);

}  // namespace psync::dist
