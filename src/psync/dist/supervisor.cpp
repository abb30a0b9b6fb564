#include "psync/dist/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/dist/backoff.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/stream_merge.hpp"
#include "psync/dist/transport.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/sweep.hpp"

namespace psync::dist {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point after_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// A connection that sent HELLO gets this long from accept() to do so
/// before the leader drops it (a dialer that never identifies itself is
/// noise, not a worker).
constexpr double kHelloGraceMs = 2000.0;

/// After a link hangs up on a live pid, the leader ticks this long at
/// 2 ms waiting to reap the exit (see poll_timeout_ms).
constexpr double kExitReapWindowMs = 100.0;

/// Best-effort frame write on a (possibly nonblocking) connection fd.
/// Small control frames normally land in the socket buffer whole; a full
/// buffer gets one short POLLOUT wait per chunk. Returns false on a hard
/// error — the caller treats the connection as dropped.
bool send_frame_fd(int fd, const Frame& frame) {
  const std::string wire = encode_frame(frame);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 100) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// One unit of schedulable work: a contiguous grid range. Assignments
/// outlive the workers that execute them — a crashed worker's assignment
/// is relaunched, a straggler's is split.
struct Assignment {
  std::size_t shard = 0;     // original shard id (incidents, epochs)
  ShardRange range;
  std::size_t launches = 0;  // processes started for this assignment
};

enum class SeatState {
  kIdle,     // no assignment; may pull from the queue or steal
  kRunning,  // child executing
  kBackoff,  // child crashed; relaunch at backoff_until
  kTerming,  // SIGTERM sent (steal reclaim or shutdown); awaiting exit
};

/// A worker process seat. Seats are fixed (opts.workers of them);
/// assignments flow through them.
struct Seat {
  SeatState state = SeatState::kIdle;
  Assignment asg;
  pid_t pid = -1;
  int conn_fd = -1;  // worker link: inherited socketpair end or TCP conn
  FrameDecoder decoder;
  Clock::time_point hangup{};  // when conn_fd last saw EOF
  std::uint64_t epoch = 0;     // lease epoch of the current launch
  bool connected_once = false; // a handshake landed this launch
  Clock::time_point last_beat{};
  Clock::time_point backoff_until{};
  Clock::time_point term_deadline{};
  std::int64_t inflight = -1;      // grid index last reported in flight
  std::uint64_t reported_done = 0; // points finished this launch (heartbeat)
  bool wedge_killed = false;  // liveness SIGKILL sent; incident recorded
  bool lost = false;          // connection-loss incident recorded
  bool reclaiming = false;    // kTerming is a steal reclaim, not shutdown
  std::optional<DecorrelatedBackoff> restart_backoff;
};

/// An accepted connection that has not yet claimed a (shard, epoch).
struct PendingConn {
  int fd = -1;
  FrameDecoder decoder;
  Clock::time_point deadline{};
};

class Supervisor {
 public:
  Supervisor(const driver::ExperimentSpec& spec, const SupervisorOptions& opts,
             const WorkerBody& body, const LaunchHook& hook)
      : spec_(spec),
        opts_(opts),
        body_(body),
        hook_(hook),
        points_(driver::SweepEngine::expand(spec)),
        table_(points_, spec.workload) {
    if (opts_.journal_base.empty()) {
      throw ConfigError(
          "distributed sweep requires a journal base path (the journal is "
          "the crash-safety mechanism, not an option)");
    }
    if (opts_.workers == 0) opts_.workers = 1;
    socket_ = opts_.transport == TransportKind::kSocket;
    worker_spec_ = spec;
    worker_spec_.threads = std::max<std::size_t>(opts_.worker_threads, 1);
    worker_spec_.journal_path.clear();
    worker_spec_.cancel = nullptr;     // workers install their own token
    worker_spec_.observer = nullptr;   // workers attach their own emitter
    worker_spec_.quarantine_indices.clear();
    worker_spec_.shard_begin = 0;
    worker_spec_.shard_end = static_cast<std::size_t>(-1);
  }

  ~Supervisor() { teardown(); }

  driver::SweepResult run() {
    // Open the journal the way Session::execute does: on resume, replay
    // it through the one journal reader — a corrupt or foreign file is a
    // typed error before any worker exists — and append after it;
    // otherwise start it empty. Only the gaps are planned into shards.
    const std::string path = journal_file(opts_.journal_base);
    if (spec_.resume) resumed_ = table_.replay(path).size();
    journal_.open(path, /*keep_existing=*/spec_.resume);
    if (opts_.on_record) {
      stream_.emplace(opts_.on_record);
      stream_->advance(table_);  // resumed history subscribers have not seen
    }
    if (socket_) {
      listen_fd_ = tcp_listen(opts_.listen_host, opts_.listen_port,
                              &listen_port_);
    }
    for (const auto& range : plan_shards(table_.present(), opts_.workers)) {
      Assignment asg;
      asg.shard = next_shard_id_++;
      asg.range = range;
      queue_.push_back(std::move(asg));
    }
    seats_.resize(opts_.workers);
    for (std::size_t s = 0; s < seats_.size(); ++s) {
      seats_[s].restart_backoff.emplace(
          opts_.restart_backoff_ms, opts_.restart_backoff_max_ms,
          opts_.backoff_seed + 0x9E3779B97F4A7C15ULL * (s + 1));
    }

    while (work_remains()) {
      const auto now = Clock::now();
      check_cancel(now);
      schedule(now);
      wait_for_events(now);
      reap();
      enforce_deadlines(Clock::now());
    }
    teardown();
    if (shutdown_) {
      throw CancelledError(
          "distributed sweep cancelled; journal tail is durable");
    }
    return assemble();
  }

 private:
  bool work_remains() const {
    if (!queue_.empty() && !shutdown_) return true;
    for (const auto& seat : seats_) {
      if (seat.state != SeatState::kIdle) return true;
    }
    return false;
  }

  /// Close every leader-side fd and dispose of orphaned worker processes.
  /// Idempotent; runs both on the normal exit path and from the
  /// destructor (an exception mid-loop must not leak fds or children).
  void teardown() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& pc : pending_) {
      if (pc.fd >= 0) ::close(pc.fd);
    }
    pending_.clear();
    for (auto& seat : seats_) {
      if (seat.conn_fd >= 0) {
        ::close(seat.conn_fd);
        seat.conn_fd = -1;
      }
    }
    // Orphans are partitioned workers the loop deliberately left alive so
    // fencing could turn them away. The run is over: nobody will answer
    // their reconnects, so end them.
    for (const pid_t pid : orphans_) {
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
    }
    orphans_.clear();
  }

  // --- cancellation ----------------------------------------------------

  void check_cancel(Clock::time_point now) {
    if (shutdown_) return;
    const CancelToken* token =
        opts_.cancel != nullptr ? opts_.cancel : spec_.cancel;
    if (token == nullptr || !token->cancelled()) return;
    shutdown_ = true;
    queue_.clear();
    for (auto& seat : seats_) {
      switch (seat.state) {
        case SeatState::kRunning:
          if (seat.pid > 0) ::kill(seat.pid, SIGTERM);
          seat.state = SeatState::kTerming;
          seat.reclaiming = false;
          seat.term_deadline = after_ms(now, opts_.term_grace_ms);
          break;
        case SeatState::kBackoff:
          seat.state = SeatState::kIdle;  // never relaunched
          break;
        case SeatState::kTerming:
          seat.reclaiming = false;  // the exit now just winds down
          break;
        case SeatState::kIdle:
          break;
      }
    }
  }

  // --- scheduling ------------------------------------------------------

  void schedule(Clock::time_point now) {
    if (shutdown_) return;
    for (auto& seat : seats_) {
      if (seat.state == SeatState::kBackoff && now >= seat.backoff_until) {
        launch(seat);
      }
    }
    for (auto& seat : seats_) {
      if (queue_.empty()) break;
      if (seat.state != SeatState::kIdle) continue;
      seat.asg = std::move(queue_.front());
      queue_.pop_front();
      seat.restart_backoff->reset();
      launch(seat);
    }
    maybe_steal(now);
  }

  void maybe_steal(Clock::time_point now) {
    if (!opts_.steal || !queue_.empty()) return;
    // One reclaim in flight at a time keeps the bookkeeping linear; further
    // idle seats wait for the re-partitioned chunks to hit the queue.
    std::size_t idle = 0;
    for (const auto& seat : seats_) {
      if (seat.state == SeatState::kIdle) ++idle;
      if (seat.state == SeatState::kTerming) return;
      if (seat.state == SeatState::kBackoff) return;  // restart first
    }
    if (idle == 0) return;
    Seat* victim = nullptr;
    std::size_t victim_remaining = 0;
    for (auto& seat : seats_) {
      if (seat.state != SeatState::kRunning) continue;
      const std::size_t remaining = remaining_estimate(seat);
      if (remaining >= opts_.min_steal_points && remaining > victim_remaining) {
        victim = &seat;
        victim_remaining = remaining;
      }
    }
    if (victim == nullptr) return;
    ::kill(victim->pid, SIGTERM);
    victim->state = SeatState::kTerming;
    victim->reclaiming = true;
    victim->term_deadline = after_ms(now, opts_.term_grace_ms);
  }

  /// How many points a running seat still has, from heartbeat state. With
  /// ascending single-thread execution the in-flight index is exact even
  /// across a resume; the per-launch done count is the fallback before the
  /// first point starts.
  std::size_t remaining_estimate(const Seat& seat) const {
    const auto idx = seat.inflight;
    if (idx >= 0 && seat.asg.range.contains(static_cast<std::size_t>(idx))) {
      return seat.asg.range.end - static_cast<std::size_t>(idx);
    }
    const auto done = static_cast<std::size_t>(seat.reported_done);
    return seat.asg.range.size() - std::min(seat.asg.range.size(), done);
  }

  // --- process lifecycle -----------------------------------------------

  void launch(Seat& seat) {
    WorkerConfig cfg;
    cfg.shard = seat.asg.shard;
    cfg.generation = seat.asg.launches;
    cfg.range = seat.asg.range;
    cfg.quarantine.assign(quarantine_.begin(), quarantine_.end());
    cfg.heartbeat_ms = opts_.heartbeat_ms;
    // A worker has no journal to resume from, so the leader narrows its
    // window past the durably-done prefix. Interior gaps (a steal
    // overlap) re-run and land as agreeing duplicates.
    while (cfg.range.begin < cfg.range.end && table_.has(cfg.range.begin)) {
      ++cfg.range.begin;
    }
    if (cfg.range.begin >= cfg.range.end) {
      // The previous worker recorded everything before dying — the
      // assignment is already complete, nothing to launch.
      seat.state = SeatState::kIdle;
      seat.restart_backoff->reset();
      return;
    }
    cfg.epoch = ledger_.issue(seat.asg.shard);

    // Connect the worker: a TCP worker dials the listener; a local one is
    // born connected to the leader through a socketpair ([0] stays here,
    // [1] is the child's, and only the child's across exec).
    int link[2] = {-1, -1};
    if (socket_) {
      cfg.connect_host = opts_.advertise_host.empty() ? opts_.listen_host
                                                      : opts_.advertise_host;
      cfg.connect_port = listen_port_;
    } else {
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, link) != 0) {
        ledger_.revoke(cfg.epoch);
        throw SimulationError("distributed sweep: socketpair(2) failed: " +
                              std::string(std::strerror(errno)));
      }
      cfg.link_fd = link[1];
    }
    if (hook_) hook_(cfg);

    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      if (link[0] >= 0) ::close(link[0]);
      if (link[1] >= 0) ::close(link[1]);
      ledger_.revoke(cfg.epoch);
      throw SimulationError("distributed sweep: fork(2) failed: " + err);
    }
    if (pid == 0) {
      // Child: drop every leader-side fd — the listener, pending
      // connections, and every seat's link (an inherited copy of another
      // worker's link would keep it from ever reporting EOF).
      if (link[0] >= 0) ::close(link[0]);
      if (link[1] >= 0) ::fcntl(link[1], F_SETFD, 0);  // survive exec
      if (listen_fd_ >= 0) ::close(listen_fd_);
      for (const auto& pc : pending_) {
        if (pc.fd >= 0) ::close(pc.fd);
      }
      for (const auto& other : seats_) {
        if (other.conn_fd >= 0) ::close(other.conn_fd);
      }
      const int rc = body_ ? body_(worker_spec_, cfg)
                           : run_worker(worker_spec_, cfg);
      ::_exit(rc);
    }
    seat.conn_fd = -1;  // a TCP worker attaches on HELLO
    if (link[1] >= 0) {
      ::close(link[1]);
      const int fl = ::fcntl(link[0], F_GETFL);
      ::fcntl(link[0], F_SETFL, fl | O_NONBLOCK);
      seat.conn_fd = link[0];
    }

    seat.pid = pid;
    seat.decoder.reset();
    seat.hangup = {};
    seat.epoch = cfg.epoch;
    seat.connected_once = false;
    seat.state = SeatState::kRunning;
    seat.last_beat = Clock::now();
    seat.inflight = -1;
    seat.reported_done = 0;
    seat.wedge_killed = false;
    seat.lost = false;
    seat.reclaiming = false;
    ++seat.asg.launches;
  }

  void wait_for_events(Clock::time_point now) {
    enum class Ref { kListen, kPending, kConn };
    std::vector<pollfd> fds;
    std::vector<std::pair<Ref, std::size_t>> owner;
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      owner.emplace_back(Ref::kListen, 0);
    }
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      fds.push_back({pending_[p].fd, POLLIN, 0});
      owner.emplace_back(Ref::kPending, p);
    }
    for (std::size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s].conn_fd >= 0) {
        fds.push_back({seats_[s].conn_fd, POLLIN, 0});
        owner.emplace_back(Ref::kConn, s);
      }
    }
    const int timeout = poll_timeout_ms(now);
    const int n = ::poll(fds.empty() ? nullptr : fds.data(),
                         static_cast<nfds_t>(fds.size()), timeout);
    if (n <= 0) return;  // timeout or EINTR: deadlines handled by caller
    bool accepted = false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      switch (owner[i].first) {
        case Ref::kListen:
          accepted = true;  // accept after the loop: pending_ may grow
          break;
        case Ref::kPending:
          service_pending(pending_[owner[i].second]);
          break;
        case Ref::kConn:
          // The seat may have been re-attached (its old fd closed) by an
          // earlier service_pending this round; match by fd to be safe.
          if (seats_[owner[i].second].conn_fd == fds[i].fd) {
            drain_socket(seats_[owner[i].second]);
          }
          break;
      }
    }
    // Drop pending slots that attached (fd moved to a seat) or closed.
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const PendingConn& pc) {
                                    return pc.fd < 0;
                                  }),
                   pending_.end());
    if (accepted) accept_connections();
  }

  void accept_connections() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN drained the backlog; anything else (ECONNABORTED,
        // EMFILE, ...) is transient from the leader's point of view — the
        // worker retries with backoff, so just move on.
        break;
      }
      const int fl = ::fcntl(fd, F_GETFL);
      ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
      PendingConn pc;
      pc.fd = fd;
      pc.deadline = after_ms(Clock::now(), kHelloGraceMs);
      pending_.push_back(std::move(pc));
    }
  }

  /// Read a not-yet-identified connection. A valid HELLO attaches the
  /// connection (and its decoder, which may already hold trailing frames)
  /// to the claimed seat; anything else — a revoked epoch, a non-HELLO
  /// first frame, framing garbage — closes it.
  void service_pending(PendingConn& pc) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(pc.fd, buf, sizeof(buf));
      if (n > 0) {
        pc.decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ::close(pc.fd);  // EOF or error before HELLO: not a worker
      pc.fd = -1;
      return;
    }
    Frame frame;
    const auto r = pc.decoder.next(&frame);
    if (r == FrameDecoder::Result::kNeedMore) return;
    if (r == FrameDecoder::Result::kCorrupt ||
        frame.kind != FrameKind::kHello) {
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    HelloClaim claim;
    if (!parse_hello_payload(frame.payload, &claim)) {
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    Seat* seat = seat_by_epoch(claim.epoch);
    if (seat == nullptr || !ledger_.valid(claim.epoch) ||
        ledger_.shard_of(claim.epoch) != claim.shard) {
      // Fence: this launch's lease was revoked (its shard was given away
      // while the worker was partitioned, or its exit was already
      // handled). The zombie is told so and refused — it can never write
      // a record into a shard someone else now owns.
      ++fenced_;
      (void)send_frame_fd(
          pc.fd, Frame{FrameKind::kHelloAck,
                       std::string("fenced stale epoch ") +
                           std::to_string(claim.epoch)});
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    if (!send_frame_fd(pc.fd, Frame{FrameKind::kHelloAck, kHelloAckOk})) {
      ::close(pc.fd);
      pc.fd = -1;
      return;
    }
    if (seat->conn_fd >= 0) ::close(seat->conn_fd);
    seat->conn_fd = pc.fd;
    seat->decoder = std::move(pc.decoder);  // trailing frames come along
    pc.fd = -1;
    pc.decoder.reset();
    if (seat->connected_once) ++reconnects_;
    seat->connected_once = true;
    seat->last_beat = Clock::now();
    process_frames(*seat);
  }

  Seat* seat_by_epoch(std::uint64_t epoch) {
    if (epoch == 0) return nullptr;
    for (auto& seat : seats_) {
      if (seat.epoch == epoch) return &seat;
    }
    return nullptr;
  }

  /// Sleep until the nearest deadline: a backoff expiry, a liveness
  /// timeout, a SIGTERM grace cutoff, or a pending handshake deadline —
  /// capped so child exits (reaped with WNOHANG) are noticed promptly
  /// even when no deadline is near.
  int poll_timeout_ms(Clock::time_point now) const {
    double next = 50.0;
    const double liveness = liveness_ms();
    for (const auto& pc : pending_) {
      next = std::min(next, ms_between(now, pc.deadline));
    }
    for (const auto& seat : seats_) {
      if (seat.pid > 0 && seat.conn_fd < 0 &&
          ms_between(seat.hangup, now) < kExitReapWindowMs) {
        // The link just hung up and the exit is not reaped yet: the
        // process is most likely mid-_exit — fds close before the zombie
        // becomes waitable — so there is nothing to poll. Tick fast until
        // waitpid catches it instead of sleeping out the cap. The window
        // bounds this for a TCP worker that lost its connection but
        // lives on (the liveness deadline handles that one).
        return 2;
      }
      switch (seat.state) {
        case SeatState::kBackoff:
          next = std::min(next, ms_between(now, seat.backoff_until));
          break;
        case SeatState::kRunning:
          if (liveness > 0.0) {
            next = std::min(
                next, ms_between(now, after_ms(seat.last_beat, liveness)));
          }
          break;
        case SeatState::kTerming:
          next = std::min(next, ms_between(now, seat.term_deadline));
          break;
        case SeatState::kIdle:
          break;
      }
    }
    return std::max(5, static_cast<int>(std::ceil(next)));
  }

  double liveness_ms() const {
    if (opts_.heartbeat_ms <= 0.0) return 0.0;  // liveness disabled
    return opts_.heartbeat_ms * opts_.liveness_factor;
  }

  void drain_socket(Seat& seat) {
    char buf[4096];
    bool got_bytes = false;
    for (;;) {
      const ssize_t n = ::read(seat.conn_fd, buf, sizeof(buf));
      if (n > 0) {
        got_bytes = true;
        seat.decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or error: the link hung up. Usually the worker is exiting,
      // which reap() observes; a TCP worker may instead be mid-reconnect
      // behind a partition, which liveness (kConnectionLost) decides.
      ::close(seat.conn_fd);
      seat.conn_fd = -1;
      seat.hangup = Clock::now();
      break;
    }
    if (got_bytes) seat.last_beat = Clock::now();
    process_frames(seat);
  }

  void process_frames(Seat& seat) {
    Frame frame;
    for (;;) {
      const auto r = seat.decoder.next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kCorrupt) {
        // Framing desync is unrecoverable on a byte stream: drop the
        // link. A TCP worker reconnects and the codec starts clean; an
        // inherited link's worker sees EOF and winds down.
        if (seat.conn_fd >= 0) {
          ::close(seat.conn_fd);
          seat.conn_fd = -1;
          seat.hangup = Clock::now();
        }
        seat.decoder.reset();
        break;
      }
      switch (frame.kind) {
        case FrameKind::kHeartbeat: {
          Heartbeat hb;
          if (parse_heartbeat_line(frame.payload, &hb)) {
            apply_heartbeat(seat, hb);
          }
          break;
        }
        case FrameKind::kJournal:
          handle_journal_frame(seat, frame.payload);
          break;
        default:
          break;  // wrong-direction or unknown control frame: ignore
      }
    }
  }

  void apply_heartbeat(Seat& seat, const Heartbeat& hb) {
    seat.reported_done = hb.points_done;
    seat.inflight = hb.kind == Heartbeat::Kind::kPointStart ? hb.inflight
                    : hb.kind == Heartbeat::Kind::kPointDone
                        ? -1
                        : seat.inflight;
  }

  /// One shipped journal record, through the record table: a fresh one
  /// is appended (fsync before the ack, so an acked record is durable)
  /// and advances the stream; a retransmission is an agreeing duplicate
  /// and is just acked again. A record of another campaign or one whose
  /// status contradicts the recorded verdict is a JournalConflictError —
  /// the same trust model as resume.
  void handle_journal_frame(Seat& seat, const std::string& payload) {
    std::size_t index = 0;
    std::string line;
    if (!parse_journal_payload(payload, &index, &line)) return;  // garbled
    driver::JournalEntry entry;
    if (!driver::parse_journal_line(line, &entry) ||
        entry.rec.index != index) {
      return;  // no ack: the worker retransmits (or dies trying)
    }
    if (table_.add(std::move(entry),
                   "shard " + std::to_string(seat.asg.shard) + " record")) {
      journal_.append(line);  // durable before the ack goes out
      if (stream_) stream_->advance(table_);
    }
    if (seat.conn_fd >= 0) {
      (void)send_frame_fd(seat.conn_fd, Frame{FrameKind::kJournalAck,
                                              journal_ack_payload(index)});
    }
  }

  void reap() {
    // Wait on our own pids only: a host process (test binary, CLI) may have
    // children of its own, and waitpid(-1) would swallow their statuses.
    for (auto& seat : seats_) {
      if (seat.pid <= 0) continue;
      int wstatus = 0;
      const pid_t pid = ::waitpid(seat.pid, &wstatus, WNOHANG);
      if (pid == seat.pid) handle_exit(seat, wstatus);
    }
    // Orphans (partitioned workers whose shard moved on) exit on their own
    // once fencing turns them away; collect them opportunistically.
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      int wstatus = 0;
      const pid_t pid = ::waitpid(*it, &wstatus, WNOHANG);
      if (pid == *it || (pid < 0 && errno == ECHILD)) {
        it = orphans_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void enforce_deadlines(Clock::time_point now) {
    const double liveness = liveness_ms();
    for (auto& pc : pending_) {
      if (pc.fd >= 0 && now >= pc.deadline) {
        ::close(pc.fd);  // never said HELLO: not a worker
        pc.fd = -1;
      }
    }
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const PendingConn& pc) {
                                    return pc.fd < 0;
                                  }),
                   pending_.end());
    for (auto& seat : seats_) {
      if (seat.state != SeatState::kRunning || liveness <= 0.0 ||
          ms_between(seat.last_beat, now) <= liveness) {
        if (seat.state == SeatState::kTerming && now >= seat.term_deadline &&
            seat.pid > 0) {
          ::kill(seat.pid, SIGKILL);
          seat.term_deadline = after_ms(now, opts_.term_grace_ms);
        }
        continue;
      }
      if (seat.conn_fd < 0) {
        // Silent *and* disconnected: the worker is on the far side of a
        // partition (or its host died). Two reasons not to SIGKILL the
        // pid: it may be a launch wrapper whose real worker is remote,
        // and killing is not needed for safety — revoking the epoch is.
        // The shard relaunches; if the original ever reconnects it is
        // fenced and stands down by itself. (A local worker whose
        // inherited link hung up is already winding down; teardown ends
        // it if it has not.)
        record_incident(
            driver::FailureKind::kConnectionLost,
            "shard " + std::to_string(seat.asg.shard) + " worker (pid " +
                std::to_string(seat.pid) + ", epoch " +
                std::to_string(seat.epoch) + ") disconnected and silent for " +
                std::to_string(static_cast<long>(
                    ms_between(seat.last_beat, now))) +
                " ms (liveness timeout " +
                std::to_string(static_cast<long>(liveness)) +
                " ms); fencing its epoch and relaunching",
            seat.asg.launches);
        ledger_.revoke(seat.epoch);
        seat.epoch = 0;
        if (seat.pid > 0) orphans_.push_back(seat.pid);
        seat.pid = -1;
        seat.lost = true;
        schedule_relaunch(seat);
        continue;
      }
      // Wedged: the channel has been silent past the liveness timeout even
      // though the worker-side timer thread beats through long points.
      // SIGKILL is the only safe answer to a process we can't trust to
      // unwind; the journal is fsync'd line-by-line so nothing durable
      // is lost.
      record_incident(
          driver::FailureKind::kTimeout,
          "shard " + std::to_string(seat.asg.shard) + " worker (pid " +
              std::to_string(seat.pid) + ") heartbeat silent for " +
              std::to_string(
                  static_cast<long>(ms_between(seat.last_beat, now))) +
              " ms (liveness timeout " +
              std::to_string(static_cast<long>(liveness)) + " ms); killing",
          seat.asg.launches);
      seat.wedge_killed = true;
      ::kill(seat.pid, SIGKILL);
      // Exit flows through the normal reap path; stay out of kRunning so
      // the incident isn't re-recorded next tick.
      seat.state = SeatState::kTerming;
      seat.term_deadline = after_ms(now, opts_.term_grace_ms);
    }
  }

  void handle_exit(Seat& seat, int wstatus) {
    if (seat.conn_fd >= 0) {
      drain_socket(seat);  // salvage frames still in the socket buffer
      if (seat.conn_fd >= 0) {
        ::close(seat.conn_fd);
        seat.conn_fd = -1;
      }
    }
    if (seat.epoch != 0) {
      // This launch is over; any later claim of its epoch is a zombie.
      ledger_.revoke(seat.epoch);
      seat.epoch = 0;
    }
    seat.pid = -1;

    if (shutdown_) {
      seat.state = SeatState::kIdle;
      return;
    }

    const bool graceful = WIFEXITED(wstatus) &&
                          (WEXITSTATUS(wstatus) == kWorkerExitOk ||
                           WEXITSTATUS(wstatus) == kWorkerExitCancelled ||
                           WEXITSTATUS(wstatus) == kWorkerExitFenced);
    const std::vector<std::size_t> undone = undone_in(seat.asg);

    if (seat.reclaiming) {
      // Steal reclaim: however the victim died (graceful exit 4, or a
      // crash racing the SIGTERM), the table says what is left; split
      // that across the idle capacity. An ungraceful end is still an
      // incident worth recording.
      if (!graceful) {
        record_incident(driver::FailureKind::kInternalError,
                        exit_description(seat, wstatus), seat.asg.launches);
        note_crash_point(seat, undone);
      }
      repartition(seat, undone);
      seat.state = SeatState::kIdle;
      seat.reclaiming = false;
      return;
    }

    if (undone.empty()) {
      // Assignment complete. The journal, not the exit code, is the truth:
      // a worker that crashed after durably recording its last point owes
      // us nothing.
      seat.state = SeatState::kIdle;
      seat.restart_backoff->reset();
      return;
    }

    // Crash (or an exit-0 liar with an incomplete journal — treat the
    // same; trusting it would silently drop points).
    if (!seat.wedge_killed && !seat.lost) {
      record_incident(driver::FailureKind::kInternalError,
                      exit_description(seat, wstatus), seat.asg.launches);
    }
    note_crash_point(seat, undone);
    schedule_relaunch(seat);
  }

  /// Relaunch policy shared by crash exits and connection loss: give up
  /// after max_restarts, otherwise back off with decorrelated jitter.
  void schedule_relaunch(Seat& seat) {
    if (seat.asg.launches > opts_.max_restarts) {
      record_incident(
          driver::FailureKind::kWorkerCrash,
          "shard " + std::to_string(seat.asg.shard) + " abandoned after " +
              std::to_string(seat.asg.launches - 1) + " restart(s); " +
              "unfinished point(s) will be reported as failed",
          seat.asg.launches);
      gave_up_ = true;
      seat.state = SeatState::kIdle;
      return;
    }
    ++restarts_;
    seat.state = SeatState::kBackoff;
    seat.backoff_until =
        after_ms(Clock::now(), seat.restart_backoff->next_ms());
  }

  std::string exit_description(const Seat& seat, int wstatus) const {
    std::string msg = "shard " + std::to_string(seat.asg.shard) + " worker ";
    if (WIFSIGNALED(wstatus)) {
      msg += "killed by signal " + std::to_string(WTERMSIG(wstatus));
    } else if (WIFEXITED(wstatus)) {
      msg += "exited with status " + std::to_string(WEXITSTATUS(wstatus));
    } else {
      msg += "ended abnormally";
    }
    if (seat.inflight >= 0) {
      msg += " while point " + std::to_string(seat.inflight) + " was in flight";
    }
    return msg;
  }

  /// Crash-streak bookkeeping: K consecutive crashes with the same point
  /// in flight quarantine that point (the next launch journals the
  /// kQuarantined verdict instead of executing it again).
  void note_crash_point(const Seat& seat,
                        const std::vector<std::size_t>& undone) {
    if (seat.inflight < 0) return;
    const auto idx = static_cast<std::size_t>(seat.inflight);
    // Only an unfinished point can be the culprit; a crash after the
    // journal line landed is not the point's fault.
    if (!std::binary_search(undone.begin(), undone.end(), idx)) return;
    const std::size_t streak = ++crash_streak_[idx];
    if (streak >= opts_.crash_quarantine_after &&
        quarantine_.insert(idx).second) {
      record_incident(
          driver::FailureKind::kWorkerCrash,
          "point " + std::to_string(idx) + " quarantined after " +
              std::to_string(streak) + " consecutive worker crash(es)",
          streak);
    }
  }

  /// Grid indices in the assignment's window with no record, ascending.
  std::vector<std::size_t> undone_in(const Assignment& asg) const {
    std::vector<std::size_t> undone;
    for (std::size_t i = asg.range.begin; i < asg.range.end; ++i) {
      if (!table_.has(i)) undone.push_back(i);
    }
    return undone;
  }

  /// Split a reclaimed range across the idle capacity. Chunk 0 inherits
  /// the assignment's launch count; every other chunk is a steal.
  void repartition(Seat& seat, const std::vector<std::size_t>& undone) {
    if (undone.empty()) return;
    std::size_t idle = 0;
    for (const auto& other : seats_) {
      if (other.state == SeatState::kIdle) ++idle;
    }
    const ShardRange remaining{undone.front(), seat.asg.range.end};
    const auto chunks = split_range(remaining, 1 + idle);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      Assignment asg;
      asg.shard = seat.asg.shard;
      asg.range = chunks[c];
      if (c == 0) {
        asg.launches = seat.asg.launches;
      } else {
        ++steals_;
      }
      queue_.push_back(std::move(asg));
    }
  }

  void record_incident(driver::FailureKind kind, std::string message,
                       std::size_t attempts) {
    incidents_.push_back(
        driver::PointFailure{kind, std::move(message), attempts});
  }

  // --- final assembly --------------------------------------------------

  /// The result is the record table. Points an abandoned shard never
  /// recorded are filled in as failures — in the table, so the stream
  /// carries them too, but not in the journal, so a resume retries them.
  driver::SweepResult assemble() {
    journal_.close();
    const std::size_t missing = points_.size() - table_.recorded();
    if (missing > 0 && !gave_up_) {
      throw SimulationError(
          "distributed sweep finished with " + std::to_string(missing) +
          " unrecorded point(s) but no abandoned shard — supervisor bug");
    }
    for (std::size_t idx = 0; idx < points_.size(); ++idx) {
      if (table_.has(idx)) continue;
      driver::RunRecord rec;
      rec.index = idx;
      rec.workload = spec_.workload;
      rec.knobs = points_[idx].knobs;
      rec.status = driver::PointStatus::kFailed;
      rec.failure = driver::PointFailure{
          driver::FailureKind::kWorkerCrash,
          "shard abandoned after exhausting worker restarts", 0};
      table_.add(std::move(rec));
    }
    if (stream_) stream_->advance(table_);
    driver::SweepResult result;
    result.spec = spec_;
    result.records = table_.take();
    result.campaign = driver::summarize_campaign(result.records);
    result.campaign.resumed = resumed_;
    result.campaign.worker_restarts = restarts_;
    result.campaign.worker_steals = steals_;
    result.campaign.worker_reconnects = reconnects_;
    result.campaign.worker_fenced = fenced_;
    result.campaign.worker_failures = std::move(incidents_);
    return result;
  }

  driver::ExperimentSpec spec_;         // as given (result.spec)
  driver::ExperimentSpec worker_spec_;  // scrubbed copy workers overlay
  SupervisorOptions opts_;
  const WorkerBody& body_;
  const LaunchHook& hook_;

  // --- the campaign's records and its one journal ----------------------
  std::vector<driver::RunPoint> points_;
  driver::RecordTable table_;  // resumed + shipped records, first wins
  JournalWriter journal_;      // every fresh record, fsync'd before ack
  std::size_t resumed_ = 0;    // records replayed from the journal
  std::optional<StreamingMerger> stream_;  // on_record prefix cursor

  std::vector<Seat> seats_;
  std::deque<Assignment> queue_;
  std::size_t next_shard_id_ = 0;
  std::map<std::size_t, std::size_t> crash_streak_;  // per grid index
  std::set<std::size_t> quarantine_;
  std::vector<driver::PointFailure> incidents_;
  std::uint64_t restarts_ = 0;
  std::uint64_t steals_ = 0;
  bool gave_up_ = false;
  bool shutdown_ = false;

  // --- worker links ----------------------------------------------------
  bool socket_ = false;  // TCP listener instead of inherited socketpairs
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  EpochLedger ledger_;
  std::vector<PendingConn> pending_;
  std::vector<pid_t> orphans_;  // partitioned pids awaiting self-exit
  std::uint64_t reconnects_ = 0;
  std::uint64_t fenced_ = 0;
};

}  // namespace

driver::SweepResult run_distributed(const driver::ExperimentSpec& spec,
                                    const SupervisorOptions& opts,
                                    const WorkerBody& body,
                                    const LaunchHook& hook) {
  Supervisor supervisor(spec, opts, body, hook);
  return supervisor.run();
}

driver::CampaignExecutor distributed_executor(SupervisorOptions opts) {
  return [opts](const driver::FrozenSpec& frozen,
                driver::CampaignFeed& feed) -> driver::SweepResult {
    SupervisorOptions run_opts = opts;
    // A journal nobody named is scratch: it is removed once the run
    // returns a result (a cancelled run keeps it, like any journal tail).
    const bool scratch =
        run_opts.journal_base.empty() && frozen.spec.journal_path.empty();
    if (scratch) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(frozen.digest));
      run_opts.journal_base = "/tmp/psync-dist-" + std::string(hex) + ".jsonl";
    } else if (run_opts.journal_base.empty()) {
      run_opts.journal_base = frozen.spec.journal_path;
    }
    run_opts.cancel = feed.token();
    const auto chained = run_opts.on_record;
    run_opts.on_record = [&feed, &chained](std::size_t index,
                                           const driver::RunRecord& rec) {
      feed.emit(index, rec);
      if (chained) chained(index, rec);
    };
    driver::SweepResult result = run_distributed(frozen.spec, run_opts);
    if (scratch) std::remove(run_opts.journal_base.c_str());
    return result;
  };
}

}  // namespace psync::dist
