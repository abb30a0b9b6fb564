#include "psync/dist/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/transport.hpp"
#include "psync/driver/campaign.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"

namespace psync::dist {

namespace {

// Process-wide shutdown token for worker processes. SIGTERM (the leader
// reclaiming a straggler's range, or an operator) and SIGINT both request
// a graceful wind-down: finish/abandon at the next cycle-batch boundary,
// ship what finished to the leader, exit kWorkerExitCancelled. The link
// cancels this token too when it dies: the leader fenced the worker's
// epoch (exit kWorkerExitFenced) or an inherited link lost the leader.
CancelToken g_worker_cancel;

void worker_signal_handler(int /*signo*/) { g_worker_cancel.cancel(); }

void install_worker_signals() {
  struct sigaction sa = {};
  sa.sa_handler = worker_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking syscalls too
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A dead leader surfaces as EPIPE on the link's next send (handled by
  // the link), never as a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
}

// Observer layered over the heartbeat emitter that applies the
// fault-injection hooks. The crash fires *after* the start heartbeat goes
// out, so the leader's liveness bookkeeping has seen the in-flight index —
// exactly what a real mid-point crash looks like on the wire.
class FaultHookObserver final : public driver::PointObserver {
 public:
  FaultHookObserver(HeartbeatEmitter* emitter, const WorkerConfig& cfg)
      : emitter_(emitter), cfg_(cfg) {}

  void on_point_start(std::size_t index) override {
    emitter_->on_point_start(index);
    const auto idx = static_cast<std::int64_t>(index);
    if (cfg_.crash_on_index == idx) {
      // Simulated hard crash: no unwinding, no journal line, no exit
      // handlers — indistinguishable from SIGKILL for the supervisor.
      ::_exit(kWorkerExitInjectedCrash);
    }
    if (cfg_.stall_on_index == idx) {
      // Simulated wedge: silence the timer thread, then hang. The leader
      // must notice the quiet channel and SIGKILL us.
      emitter_->stop();
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
  }

  void on_point_done(std::size_t index, driver::PointStatus status) override {
    emitter_->on_point_done(index, status);
  }

 private:
  HeartbeatEmitter* const emitter_;
  const WorkerConfig& cfg_;
};

/// Stream every completed point's journal line to the leader as the
/// campaign produces events. The event log is the bridge —
/// Session::execute publishes each record in completion order, so the
/// shipped stream carries exactly the lines a local JournalWriter would
/// have appended.
void ship_journal_stream(driver::CampaignHandle& handle,
                         const std::vector<driver::RunPoint>& points,
                         WorkerLink* link) {
  std::size_t cursor = 0;
  std::vector<driver::CampaignEvent> events;
  for (;;) {
    events.clear();
    cursor = handle.events_since(cursor, 50.0, &events);
    for (const auto& ev : events) {
      link->send_journal(
          ev.index, driver::journal_line(ev.record, points[ev.index].seed,
                                         points[ev.index].digest));
    }
    if (handle.done() && events.empty()) break;
    if (link->dead()) break;  // the campaign is being cancelled anyway
  }
}

/// Post-run flush: keep pumping until the leader acked every record or
/// the budget runs out. Exiting with unacked records is safe — the leader
/// treats an incomplete journal as undone work and re-runs it — this just
/// avoids that re-run in the common case of a transient disconnect.
void flush_unacked(WorkerLink* link, double heartbeat_ms) {
  const double budget_ms =
      std::max(2000.0, heartbeat_ms > 0.0 ? 100.0 * heartbeat_ms : 0.0);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(budget_ms));
  while (link->unacked() > 0 && !link->dead() &&
         std::chrono::steady_clock::now() < deadline) {
    (void)link->flush(50.0);
  }
}

/// Exit code of a worker whose link died under it.
int dead_link_exit(const WorkerLink& link) {
  return link.fenced() ? kWorkerExitFenced : kWorkerExitCancelled;
}

}  // namespace

int run_worker(driver::ExperimentSpec spec, const WorkerConfig& cfg) {
  install_worker_signals();
  g_worker_cancel.reset();
  if (cfg.link_fd < 0 && cfg.connect_host.empty()) {
    std::fprintf(stderr,
                 "psync worker (shard %zu): no leader link (neither an "
                 "inherited fd nor a host to dial)\n",
                 cfg.shard);
    return kWorkerExitError;
  }

  WorkerLinkOptions lopts;
  lopts.fd = cfg.link_fd;
  lopts.host = cfg.connect_host;
  lopts.port = cfg.connect_port;
  lopts.shard = cfg.shard;
  lopts.epoch = cfg.epoch;
  // Jitter seed: decorrelate reconnect schedules across shards and
  // generations so one partition's survivors don't stampede back in
  // lockstep.
  lopts.reconnect_seed = 0x9E3779B97F4A7C15ULL ^
                         (cfg.epoch * 0x2545F4914F6CDD1DULL + 1) ^
                         (static_cast<std::uint64_t>(cfg.shard) << 32);
  lopts.chaos = cfg.chaos;
  WorkerLink link(lopts, &g_worker_cancel);
  try {
    HeartbeatEmitter emitter(&link, cfg.shard, cfg.heartbeat_ms);
    FaultHookObserver observer(&emitter, cfg);

    // No local journal: the leader appends shipped records to the campaign
    // journal on its side of the link, and resumes a restarted shard by
    // narrowing cfg.range past what it already holds.
    spec.shard_begin = cfg.range.begin;
    spec.shard_end = cfg.range.end;
    spec.journal_path.clear();
    spec.resume = false;
    spec.quarantine_indices = cfg.quarantine;
    spec.cancel = &g_worker_cancel;
    spec.observer = &observer;

    // Submit through the Session API and join: same executor as the
    // serial path.
    driver::Session session;
    driver::FrozenSpec frozen = driver::Session::freeze(spec);
    const std::vector<driver::RunPoint> points = frozen.points;
    auto handle = session.submit(std::move(frozen));
    ship_journal_stream(handle, points, &link);
    handle.wait();
    (void)handle.result();  // rethrows on failure/cancel
    flush_unacked(&link, cfg.heartbeat_ms);
    // Finished, but the leader never saw the records: not a success.
    return link.dead() ? dead_link_exit(link) : kWorkerExitOk;
  } catch (const CancelledError&) {
    // A SIGTERMed straggler still owes the leader whatever it finished
    // (a steal reclaim splits whatever the leader has not recorded).
    flush_unacked(&link, cfg.heartbeat_ms);
    return link.dead() ? dead_link_exit(link) : kWorkerExitCancelled;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psync worker (shard %zu): %s\n", cfg.shard,
                 e.what());
    return kWorkerExitError;
  }
}

}  // namespace psync::dist
