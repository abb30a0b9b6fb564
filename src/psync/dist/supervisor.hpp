// The sweep leader: shards one ExperimentSpec grid across worker
// *processes* and survives their deaths.
//
// Supervision model, in one paragraph: the leader keeps one journal per
// campaign, in the serial Session format, and one grid-indexed record
// table (driver::RecordTable) that is both the journal's dedup rule and
// the final result. On resume the journal is replayed into the table
// first, exactly as Session::execute does, and only its gaps are cut into
// contiguous ranges (shard.hpp) — *assignments* that `workers` process
// seats execute. Every worker talks to the leader over one frame protocol
// on its link (transport.hpp): heartbeats (heartbeat.hpp) and each
// completed point's journal record flow up; a fresh record enters the
// table, is appended to the journal (fsync before ack — journal remains
// truth) and acked. The leader is the only journal writer. Silence longer
// than the liveness timeout means the process is wedged and it is
// SIGKILLed. A dead or wedged worker's assignment is relaunched in place
// with decorrelated-jitter backoff, its window narrowed past what the
// table already holds, so only the points that were never durably
// recorded re-run. A point that kills its worker K launches in a row is
// quarantined — recorded as kQuarantined/worker_crash — instead of being
// allowed to crash-loop the sweep. When a seat runs out of work it
// steals: the straggler with the most unfinished points is asked to stop
// (SIGTERM -> graceful exit) and its unfinished suffix is re-partitioned
// into ranges across the idle seats. At the end the table, in grid order,
// is the SweepResult; a leader killed mid-run is resumed like a serial
// run, from the same journal.
//
// Only connection setup depends on the transport. kPipe forks each
// worker onto an inherited socketpair: connected from birth, no
// handshake, and its hang-up means the process is exiting. kSocket
// listens on TCP and workers dial back, which lets them run on other
// hosts and reconnect; the table dedups retransmissions by grid index
// and the leader *fences* zombie workers by lease epoch: every launch gets a fresh
// epoch, the epoch is revoked when the leader moves on (relaunch after
// connection loss, steal reclaim, exit), and a worker reconnecting with a
// revoked epoch is refused before it can write a single record.
// Connection loss is its own failure class (kConnectionLost): a
// disconnected worker that stays silent past the liveness window is
// presumed partitioned — it is *not* killed (the process may be
// unreachable, not dead); its shard is relaunched and the fence keeps the
// survivor out.
//
// Determinism: per-point seeds come from the global grid index and the
// table holds journal round-trips, so the rendered JSON/CSV is
// byte-identical to a single-process serial run no matter how many workers
// died along the way. All supervision accounting (restarts, steals,
// reconnects, fences, incident list) lives in the non-serialized
// CampaignReport fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "psync/common/cancel.hpp"
#include "psync/dist/transport.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"

namespace psync::dist {

struct SupervisorOptions {
  /// Worker process seats (and initial shard count). 0 is treated as 1.
  std::size_t workers = 2;

  /// How workers connect (transport.hpp); both speak the same frames.
  /// kPipe forks them onto inherited socketpairs; kSocket listens on TCP
  /// and they dial back (remote-capable, reconnect + epoch fencing).
  TransportKind transport = TransportKind::kPipe;
  /// kSocket: where the leader listens (port 0 = ephemeral) and
  /// the host workers are told to dial. advertise_host defaults to
  /// listen_host — set it when workers run on other machines and must
  /// dial a routable address rather than the bind address.
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::string advertise_host;

  /// Streaming sink: called with (index, record) in strictly ascending
  /// grid order as recorded points become contiguous (stream_merge.hpp),
  /// while later shards still compute — resumed records first, then
  /// shipped ones as the leader appends them, then any failures filled in
  /// for an abandoned shard. Every point is delivered exactly once, from
  /// the same record table the final SweepResult comes from.
  std::function<void(std::size_t, const driver::RunRecord&)> on_record;

  /// Worker heartbeat interval; liveness timeout is
  /// heartbeat_ms * liveness_factor (a worker is presumed wedged — and
  /// SIGKILLed — after that much silence). The factor leaves room for
  /// scheduler jitter; with a 100 ms beat a worker must go a full second
  /// without any traffic before it is declared dead.
  double heartbeat_ms = 100.0;
  double liveness_factor = 10.0;

  /// Restart policy per assignment: relaunch n waits a decorrelated-
  /// jitter draw (backoff.hpp) from [restart_backoff_ms,
  /// min(restart_backoff_max_ms, 3 * previous wait)] — first relaunch
  /// waits exactly restart_backoff_ms. After max_restarts an assignment
  /// is abandoned and its unfinished points are reported as
  /// kFailed/worker_crash instead of looping forever.
  double restart_backoff_ms = 50.0;
  double restart_backoff_max_ms = 2000.0;
  std::size_t max_restarts = 5;
  /// Seed of the restart jitter (mixed with the seat index so seats never
  /// share a schedule). Fixed default keeps runs reproducible.
  std::uint64_t backoff_seed = 0x9E3779B97F4A7C15ULL;

  /// Quarantine a grid point after this many consecutive worker crashes
  /// with that point in flight (the crash analogue of PointGuard's retry
  /// budget; uses the same taxonomy via kWorkerCrash).
  std::size_t crash_quarantine_after = 3;

  /// Work stealing: an idle seat may reclaim the unfinished suffix of the
  /// busiest running seat, but only when at least min_steal_points remain
  /// (smaller remainders finish faster than a SIGTERM round-trip).
  bool steal = true;
  std::size_t min_steal_points = 4;
  /// How long a SIGTERMed straggler gets to flush and exit before SIGKILL.
  double term_grace_ms = 5000.0;

  /// The campaign's journal: journal_base itself when it ends in
  /// ".jsonl", else journal_base + ".jsonl". Opened like Session opens
  /// spec.journal_path: replayed and appended to when spec.resume is set,
  /// truncated otherwise. Required — the journal *is* the crash-safety
  /// story.
  std::string journal_base;

  /// SweepEngine threads inside each worker (default 1: ascending-order
  /// execution keeps a shard's unfinished remainder a contiguous suffix,
  /// which is what makes stealing cheap).
  std::size_t worker_threads = 1;

  /// Leader-side graceful shutdown (SIGTERM/SIGINT handler token):
  /// once cancelled the leader SIGTERMs every worker, waits for the grace
  /// period, reaps, and throws CancelledError — all journal tails durable.
  const CancelToken* cancel = nullptr;
};

/// Runs in the forked child, never returns control flow to the leader:
/// either executes the shard in-process (default: run_worker) or execs a
/// fresh binary (psync_sim's `--worker-shard` mode with `--link-fd` or
/// `--connect`, or a launch template that ships the worker to another
/// host). Its return value becomes the child's exit code.
using WorkerBody =
    std::function<int(const driver::ExperimentSpec&, const WorkerConfig&)>;

/// Leader-side hook applied to each WorkerConfig just before fork — how
/// tests and the fault smokes inject crash_on_index / stall_on_index /
/// chaos options for specific shards and generations. May be empty.
using LaunchHook = std::function<void(WorkerConfig&)>;

/// Execute `spec`'s sweep across worker processes into one grid-order
/// SweepResult. Throws ConfigError for a missing journal_base,
/// CancelledError on leader shutdown, and the journal reader's typed
/// errors (JournalCorruptError, JournalConflictError) — before any worker
/// is forked — when a resumed journal is corrupt or another campaign's.
driver::SweepResult run_distributed(const driver::ExperimentSpec& spec,
                                    const SupervisorOptions& opts,
                                    const WorkerBody& body = {},
                                    const LaunchHook& hook = {});

/// Adapt run_distributed into a driver::CampaignExecutor, so a Session —
/// and therefore the serve daemon — executes submitted campaigns across
/// worker processes instead of an in-process thread pool. Per campaign:
/// `opts.journal_base` defaults to the spec's own journal_path (resumed
/// when spec.resume is set, as the serve daemon does), or to a
/// digest-named scratch journal under /tmp that is removed once the run
/// returns; the campaign's cancel token becomes the leader shutdown
/// token, and the stream feeds each contiguous record to the campaign's
/// events while the sweep still runs — subscribers see partial results
/// live, every point exactly once.
driver::CampaignExecutor distributed_executor(SupervisorOptions opts);

}  // namespace psync::dist
