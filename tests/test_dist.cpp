// Distributed sweeps (src/psync/dist): shard planning, the heartbeat wire
// codec, flock journal ownership, the one journal reader
// (driver::RecordTable) every resume goes through, the Runner's shard
// window, the worker entry point on an inherited link, and full
// leader/worker supervision — worker crash restart, wedge detection via
// heartbeat liveness, crash-loop quarantine, work stealing and leader
// resume — all asserted against the tentpole invariants: the output is
// byte-identical to a single-process run, and the leader leaves exactly
// one journal, in the serial format, that a serial resume reproduces.
#include <gtest/gtest.h>

#include <dirent.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/shard.hpp"
#include "psync/dist/supervisor.hpp"
#include "psync/dist/worker.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"

namespace psync::dist {
namespace {

using driver::ExperimentSpec;
using driver::FailureKind;
using driver::PointStatus;
using driver::RunPoint;
using driver::RunRecord;
using driver::Runner;
using driver::SweepEngine;

/// Unique per test-process path: concurrent test processes never share a
/// journal (or its flock).
std::string fresh_base(const std::string& name) {
  return testing::TempDir() + "psync_dist_" + std::to_string(::getpid()) +
         "_" + name;
}

/// A fresh, empty directory of its own, for tests that assert on every
/// file the leader leaves behind.
std::string fresh_dir(const std::string& name) {
  const std::string dir = fresh_base(name);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Every entry of `dir` but "." and "..", sorted.
std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Cheap deterministic workload: the metric depends only on the point's
/// seed (which depends only on the global grid index), so any correctly
/// merged execution is byte-identical to a serial one. The t_p knob value
/// doubles as a per-point host sleep in ms, to give the supervisor's
/// timing machinery (stealing, liveness) something to observe.
class DistTestWorkload final : public driver::Workload {
 public:
  std::string name() const override { return "dist_test"; }
  RunRecord run(const RunPoint& pt) const override {
    double tp = 0.0;
    for (const auto& [knob, value] : pt.knobs) {
      if (knob == "t_p") tp = value;
    }
    if (tp > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(tp)));
    }
    RunRecord rec;
    rec.metrics.push_back(
        {"val", static_cast<double>(pt.seed % 1000003ULL) / 997.0, -1});
    return rec;
  }
};

ExperimentSpec make_spec(std::vector<double> tp_values) {
  driver::register_workload(std::make_unique<DistTestWorkload>());
  ExperimentSpec spec;
  spec.workload = "dist_test";
  spec.axes.push_back({"t_p", std::move(tp_values)});
  spec.threads = 1;
  spec.guard.max_retries = 0;
  return spec;
}

std::vector<double> uniform(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

SupervisorOptions fast_opts(const std::string& base, std::size_t workers) {
  SupervisorOptions opts;
  opts.workers = workers;
  opts.journal_base = base;
  opts.heartbeat_ms = 10.0;
  opts.liveness_factor = 20.0;  // 200 ms — generous for loaded CI hosts
  opts.restart_backoff_ms = 1.0;
  opts.restart_backoff_max_ms = 10.0;
  opts.min_steal_points = 2;
  return opts;
}

/// The leader's journal contract, checked after a run journaled to
/// "<dir>/sweep": `dir` holds exactly one file, sweep.jsonl, in the serial
/// format with one line per grid point, and a serial Session resume over
/// it executes nothing and renders the bytes `dist` rendered.
void expect_one_serial_journal(const std::string& dir,
                               const ExperimentSpec& spec,
                               const driver::SweepResult& dist) {
  ASSERT_EQ(dir_entries(dir), std::vector<std::string>{"sweep.jsonl"});
  const std::string path = dir + "/sweep.jsonl";
  std::set<std::size_t> indices;
  for (const auto& line : read_journal_lines(path)) {
    driver::JournalEntry entry;
    ASSERT_TRUE(driver::parse_journal_line(line, &entry)) << line;
    EXPECT_TRUE(indices.insert(entry.rec.index).second)
        << "point " << entry.rec.index << " journaled twice";
  }
  EXPECT_EQ(indices.size(), dist.records.size());

  ExperimentSpec resume = spec;
  resume.journal_path = path;
  resume.resume = true;
  driver::Session session;
  auto handle = session.submit(resume);
  const driver::SweepResult serial = handle.take();
  EXPECT_EQ(handle.progress().executed, 0u);
  EXPECT_EQ(serial.campaign.resumed, dist.records.size());
  EXPECT_EQ(driver::sweep_json(serial), driver::sweep_json(dist));
  EXPECT_EQ(driver::sweep_csv(serial), driver::sweep_csv(dist));
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Shard planning

/// A grid of `n` points with nothing recorded yet.
std::vector<char> fresh_grid(std::size_t n) { return std::vector<char>(n, 0); }

TEST(ShardPlan, BalancedContiguousGapFreeCover) {
  const auto shards = plan_shards(fresh_grid(10), 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 4u);  // 10 % 3 extra point goes first
  EXPECT_EQ(shards[1].begin, 4u);
  EXPECT_EQ(shards[1].end, 7u);
  EXPECT_EQ(shards[2].begin, 7u);
  EXPECT_EQ(shards[2].end, 10u);
}

TEST(ShardPlan, MoreWorkersThanPointsYieldsSingletons) {
  const auto shards = plan_shards(fresh_grid(3), 8);
  ASSERT_EQ(shards.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(shards[i].begin, i);
    EXPECT_EQ(shards[i].end, i + 1);
  }
}

TEST(ShardPlan, EdgeCases) {
  EXPECT_TRUE(plan_shards(fresh_grid(0), 4).empty());
  const auto zero_workers = plan_shards(fresh_grid(5), 0);  // as one worker
  ASSERT_EQ(zero_workers.size(), 1u);
  EXPECT_EQ(zero_workers[0].size(), 5u);
  EXPECT_TRUE(plan_shards(std::vector<char>(5, 1), 3).empty());  // all done
}

TEST(ShardPlan, OnlyTheGapsArePlanned) {
  // Recorded: 0, 1, 4, 9. Gaps [2,4), [5,9), [10,12) share 3 workers by
  // length (2/8, 4/8, 2/8 of them, rounded up); no recorded index is in
  // any shard and every gap index is in exactly one.
  std::vector<char> recorded = fresh_grid(12);
  for (const std::size_t i : {0, 1, 4, 9}) recorded[i] = 1;
  const auto shards = plan_shards(recorded, 3);
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {2, 4}, {5, 7}, {7, 9}, {10, 12}};
  ASSERT_EQ(shards.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(shards[s].begin, want[s].first) << "shard " << s;
    EXPECT_EQ(shards[s].end, want[s].second) << "shard " << s;
  }
  std::vector<int> covered(12, 0);
  for (const auto& shard : shards) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) ++covered[i];
  }
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(covered[i], recorded[i] != 0 ? 0 : 1) << "index " << i;
  }
}

TEST(ShardPlan, SplitRangePreservesWindow) {
  const auto chunks = split_range({10, 21}, 4);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks.front().begin, 10u);
  EXPECT_EQ(chunks.back().end, 21u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].begin, chunks[i - 1].end);  // gap-free
    EXPECT_GE(chunks[i - 1].size(), chunks[i].size());
  }
}

// ---------------------------------------------------------------------------
// Heartbeat wire codec

TEST(HeartbeatCodec, RoundTripsEveryKind) {
  for (const auto kind :
       {Heartbeat::Kind::kProgress, Heartbeat::Kind::kPointStart,
        Heartbeat::Kind::kPointDone}) {
    Heartbeat hb;
    hb.shard = 7;
    hb.kind = kind;
    hb.points_done = 42;
    hb.inflight = kind == Heartbeat::Kind::kPointStart ? 1337 : -1;
    Heartbeat parsed;
    ASSERT_TRUE(parse_heartbeat_line(heartbeat_line(hb), &parsed));
    EXPECT_EQ(parsed.shard, hb.shard);
    EXPECT_EQ(parsed.kind, hb.kind);
    EXPECT_EQ(parsed.points_done, hb.points_done);
    EXPECT_EQ(parsed.inflight, hb.inflight);
  }
}

TEST(HeartbeatCodec, RejectsGarbage) {
  Heartbeat hb;
  EXPECT_FALSE(parse_heartbeat_line("", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 x 0 -", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 p 0", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 p 0 - trailing", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb one p 0 -", &hb));
  EXPECT_FALSE(parse_heartbeat_line("xx 1 p 0 -", &hb));
  EXPECT_FALSE(parse_heartbeat_line("hb 1 p 0 -\n", &hb));  // raw newline
}

// ---------------------------------------------------------------------------
// Journal ownership (flock)

TEST(JournalLock, SecondOpenerGetsTypedBusyError) {
  const std::string path = fresh_base("lock.jsonl");
  JournalWriter owner;
  owner.open(path, /*keep_existing=*/false);
  owner.append("held");
  JournalWriter intruder;
  EXPECT_THROW(intruder.open(path, /*keep_existing=*/true), JournalBusyError);
  // The refused open must not have truncated or corrupted the journal.
  owner.append("still mine");
  owner.close();
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"held", "still mine"}));
  // Ownership is releasable: after close the lock is free.
  JournalWriter next;
  EXPECT_NO_THROW(next.open(path, /*keep_existing=*/true));
  next.close();
  std::remove(path.c_str());
}

TEST(JournalLock, BusyIsASimulationErrorSubtype) {
  const std::string path = fresh_base("lock2.jsonl");
  JournalWriter owner;
  owner.open(path, false);
  JournalWriter intruder;
  EXPECT_THROW(intruder.open(path, true), SimulationError);
  owner.close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The one journal reader: RecordTable::replay, behind Session resume and
// the distributed leader's resume alike

/// The lines of a complete serial journal of `spec`'s grid.
std::vector<std::string> serial_journal_lines(const ExperimentSpec& spec,
                                              const std::string& path) {
  ExperimentSpec journaled = spec;
  journaled.journal_path = path;
  (void)Runner::run(journaled);
  return read_journal_lines(path);
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

TEST(Merge, ReassemblesInterleavedShardsInGridOrder) {
  // Shards append to one journal in whatever order their points finish:
  // any shuffle of the lines replays to the same grid-order table.
  const auto spec = make_spec(uniform(9, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("merge.jsonl");
  auto lines = serial_journal_lines(spec, path);
  std::mt19937_64 rng(9);
  std::shuffle(lines.begin(), lines.end(), rng);
  write_file(path, joined(lines));
  driver::RecordTable table(points, "dist_test");
  EXPECT_EQ(table.replay(path).size(), 9u);
  EXPECT_EQ(table.recorded(), 9u);
  EXPECT_EQ(table.duplicates(), 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.has(i));
    EXPECT_EQ(table[i].index, i);
    EXPECT_EQ(table[i].status, PointStatus::kOk);
  }
  std::remove(path.c_str());
}

TEST(Merge, AgreeingDuplicatesAreDedupedFirstWins) {
  const auto spec = make_spec(uniform(4, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("dup.jsonl");
  auto lines = serial_journal_lines(spec, path);
  lines.push_back(lines[2]);  // a straggler and its thief both recorded
  lines.push_back(lines[3]);  // points 2 and 3
  write_file(path, joined(lines));
  driver::RecordTable table(points, "dist_test");
  EXPECT_EQ(table.replay(path), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(table.duplicates(), 2u);
  std::remove(path.c_str());
}

/// Two records for point 1 of a 2-point dist_test grid: ok, then failed.
std::string conflicting_lines(const std::vector<RunPoint>& points) {
  RunRecord ok;
  ok.index = 1;
  ok.workload = "dist_test";
  ok.metrics.push_back({"val", 1.0, 2});
  RunRecord failed = ok;
  failed.status = PointStatus::kFailed;
  failed.metrics.clear();
  failed.failure =
      driver::PointFailure{FailureKind::kInternalError, "boom", 1};
  return driver::journal_line(ok, points[1].seed) + "\n" +
         driver::journal_line(failed, points[1].seed) + "\n";
}

TEST(Merge, ConflictingDuplicateStatusIsATypedError) {
  const auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("conflict.jsonl");
  write_file(path, conflicting_lines(points));
  driver::RecordTable table(points, "dist_test");
  EXPECT_THROW(table.replay(path), JournalConflictError);
  std::remove(path.c_str());
}

TEST(Merge, SessionResumeRefusesADisagreeingDuplicate) {
  // Serial resume reads through the same reader: two verdicts for one
  // point are a typed error, not "the last line wins".
  auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  spec.journal_path = fresh_base("session_conflict.jsonl");
  spec.resume = true;
  write_file(spec.journal_path, conflicting_lines(points));
  EXPECT_THROW(Runner::run(spec), JournalConflictError);
  std::remove(spec.journal_path.c_str());
}

TEST(Merge, OutOfGridAndMismatchedCampaignsAreTypedErrors) {
  const auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("alien.jsonl");
  const auto refused = [&](const RunRecord& rec, std::uint64_t seed,
                           std::uint64_t digest) {
    write_file(path, driver::journal_line(rec, seed, digest) + "\n");
    driver::RecordTable table(points, "dist_test");
    EXPECT_THROW(table.replay(path), JournalConflictError);
  };
  RunRecord rec;
  rec.index = 99;  // outside the 2-point grid
  rec.workload = "dist_test";
  refused(rec, 1, 0);
  rec.index = 0;
  refused(rec, points[0].seed + 1, 0);                  // wrong seed
  refused(rec, points[0].seed, points[0].digest + 1);   // wrong content
  rec.workload = "other";
  refused(rec, points[0].seed, 0);                      // wrong workload
  std::remove(path.c_str());
}

TEST(Merge, CorruptLineIsATypedError) {
  const auto spec = make_spec(uniform(2, 0.0));
  const auto points = SweepEngine::expand(spec);
  const std::string path = fresh_base("corrupt.jsonl");
  write_file(path, "{not a journal line}\n");
  driver::RecordTable table(points, "dist_test");
  EXPECT_THROW(table.replay(path), JournalCorruptError);
  std::remove(path.c_str());
}

TEST(Merge, MissingFilesAndPointsAreReportedNotInvented) {
  const auto spec = make_spec(uniform(6, 0.0));
  const auto points = SweepEngine::expand(spec);
  driver::RecordTable table(points, "dist_test");
  EXPECT_TRUE(table.replay(fresh_base("absent.jsonl")).empty());
  const std::string path = fresh_base("sparse.jsonl");
  auto lines = serial_journal_lines(spec, path);
  lines.resize(3);
  write_file(path, joined(lines));
  EXPECT_EQ(table.replay(path), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(table.present(), (std::vector<char>{1, 1, 1, 0, 0, 0}));
  EXPECT_TRUE(table[4].metrics.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Runner shard window

TEST(RunnerShard, WindowLimitsExecutionAndAccounting) {
  auto spec = make_spec(uniform(8, 0.0));
  spec.shard_begin = 2;
  spec.shard_end = 5;
  const auto result = Runner::run(spec);
  ASSERT_EQ(result.records.size(), 8u);
  EXPECT_EQ(result.campaign.points, 3u);
  EXPECT_EQ(result.campaign.ok, 3u);
  for (std::size_t i = 0; i < 8; ++i) {
    const bool in_window = i >= 2 && i < 5;
    EXPECT_EQ(!result.records[i].metrics.empty(), in_window) << "point " << i;
  }
}

TEST(RunnerShard, InvertedWindowIsAConfigError) {
  auto spec = make_spec(uniform(4, 0.0));
  spec.shard_begin = 3;
  spec.shard_end = 1;
  EXPECT_THROW(Runner::run(spec), ConfigError);
}

TEST(RunnerShard, ResumeToleratesOutOfWindowEntries) {
  // A replacement worker can inherit a journal whose range was since
  // re-partitioned: entries outside its window are spliced, not errors,
  // and only in-window entries count as resumed.
  auto spec = make_spec(uniform(6, 0.0));
  const std::string journal = fresh_base("window.jsonl");
  spec.journal_path = journal;
  (void)Runner::run(spec);  // full-grid journal: 6 entries

  auto windowed = spec;
  windowed.resume = true;
  windowed.shard_begin = 4;
  windowed.shard_end = 6;
  const auto result = Runner::run(windowed);
  EXPECT_EQ(result.campaign.resumed, 2u);  // only the in-window entries
  EXPECT_EQ(result.campaign.points, 2u);
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------------------
// Distributed execution (in-process fork workers)

TEST(Distributed, MatchesSerialRunByteForByte) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("happy");
  const auto dist = run_distributed(spec, fast_opts(base, 3));
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
  EXPECT_TRUE(dist.campaign.worker_failures.empty());
}

TEST(Distributed, MissingJournalBaseIsAConfigError) {
  const auto spec = make_spec(uniform(4, 0.0));
  SupervisorOptions opts;
  opts.workers = 2;  // journal_base left empty
  EXPECT_THROW(run_distributed(spec, opts), ConfigError);
}

TEST(Distributed, AlreadyCancelledLeaderThrowsCancelled) {
  const auto spec = make_spec(uniform(4, 0.0));
  CancelToken cancel;
  cancel.cancel();
  auto opts = fast_opts(fresh_base("precancel"), 2);
  opts.cancel = &cancel;
  EXPECT_THROW(run_distributed(spec, opts), CancelledError);
}

TEST(Distributed, CrashedWorkerIsRestartedAndOutputIsIdentical) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Runner::run(spec);
  const std::string dir = fresh_dir("crash");
  // First launch of shard 1 dies mid-shard with a hard _exit (no unwind,
  // no journal flush beyond completed points) — the SIGKILL shape.
  const LaunchHook hook = [](WorkerConfig& cfg) {
    if (cfg.shard == 1 && cfg.generation == 0) {
      cfg.crash_on_index = static_cast<std::int64_t>(cfg.range.begin + 1);
    }
  };
  auto opts = fast_opts(dir + "/sweep", 3);
  // No stealing: if the other seats go idle before the crash is reaped
  // they would reclaim the dying shard as a steal, and this test is about
  // the restart path specifically (stealing has its own test).
  opts.steal = false;
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
  bool crash_incident = false;
  for (const auto& incident : dist.campaign.worker_failures) {
    crash_incident |= incident.kind == FailureKind::kInternalError;
  }
  EXPECT_TRUE(crash_incident);
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, WedgedWorkerIsKilledByLivenessAndOutputIsIdentical) {
  const auto spec = make_spec(uniform(8, 1.0));
  const auto serial = Runner::run(spec);
  const std::string dir = fresh_dir("wedge");
  auto opts = fast_opts(dir + "/sweep", 2);
  opts.heartbeat_ms = 10.0;
  opts.liveness_factor = 8.0;  // 80 ms of silence = wedged
  opts.term_grace_ms = 200.0;
  // No stealing: the idle seat would otherwise SIGTERM the wedged worker
  // for its range before the liveness timeout gets to prove itself.
  opts.steal = false;
  // First launch of shard 0 goes silent (heartbeats stopped, thread hung)
  // at its second point — only the liveness timeout can catch this.
  const LaunchHook hook = [](WorkerConfig& cfg) {
    if (cfg.shard == 0 && cfg.generation == 0) {
      cfg.stall_on_index = static_cast<std::int64_t>(cfg.range.begin + 1);
    }
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
  bool wedge_incident = false;
  for (const auto& incident : dist.campaign.worker_failures) {
    wedge_incident |= incident.kind == FailureKind::kTimeout;
  }
  EXPECT_TRUE(wedge_incident) << "liveness timeout should be in the taxonomy";
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, CrashLoopingPointIsQuarantinedNotFatal) {
  const auto spec = make_spec(uniform(9, 0.0));
  const std::string dir = fresh_dir("quarantine");
  auto opts = fast_opts(dir + "/sweep", 3);
  opts.crash_quarantine_after = 2;
  // Point 4 kills its worker on every launch, forever.
  const LaunchHook hook = [](WorkerConfig& cfg) {
    if (cfg.range.contains(4)) cfg.crash_on_index = 4;
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  ASSERT_EQ(dist.records.size(), 9u);
  EXPECT_EQ(dist.records[4].status, PointStatus::kQuarantined);
  ASSERT_TRUE(dist.records[4].failure.has_value());
  EXPECT_EQ(dist.records[4].failure->kind, FailureKind::kWorkerCrash);
  EXPECT_EQ(dist.campaign.quarantined, 1u);
  EXPECT_EQ(dist.campaign.ok, 8u);  // the sweep itself survived
  bool quarantine_incident = false;
  for (const auto& incident : dist.campaign.worker_failures) {
    quarantine_incident |= incident.kind == FailureKind::kWorkerCrash;
  }
  EXPECT_TRUE(quarantine_incident);
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, IdleWorkersStealFromStragglersAndOutputIsIdentical) {
  // Shard 0's points are instant, shard 1's are slow: the first seat goes
  // idle early and must reclaim part of the straggler's range.
  std::vector<double> tp = uniform(6, 0.0);
  const auto slow = uniform(6, 40.0);
  tp.insert(tp.end(), slow.begin(), slow.end());
  const auto spec = make_spec(std::move(tp));
  const auto serial = Runner::run(spec);
  const std::string dir = fresh_dir("steal");
  auto opts = fast_opts(dir + "/sweep", 2);
  opts.term_grace_ms = 2000.0;
  const auto dist = run_distributed(spec, opts);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_steals, 1u);
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, ResumeWithFewerWorkersRunsOnlyTheMissingPoints) {
  // A 3-worker leader dies halfway: its journal keeps the first half of
  // its lines, in the order the shards delivered them. A 2-worker leader
  // resumes it and must launch workers on exactly the missing points.
  auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Runner::run(spec);
  const std::string dir = fresh_dir("resume_fewer");
  auto opts = fast_opts(dir + "/sweep", 3);
  (void)run_distributed(spec, opts);
  const std::string path = dir + "/sweep.jsonl";
  auto lines = read_journal_lines(path);
  ASSERT_EQ(lines.size(), 12u);
  lines.resize(6);
  write_file(path, joined(lines));
  std::vector<int> missing(12, 1);
  for (const auto& line : lines) {
    driver::JournalEntry entry;
    ASSERT_TRUE(driver::parse_journal_line(line, &entry));
    missing[entry.rec.index] = 0;
  }

  spec.resume = true;
  opts.workers = 2;
  opts.steal = false;  // every launched window is then a planned gap
  std::vector<int> launched(12, 0);
  const LaunchHook hook = [&](WorkerConfig& cfg) {
    for (std::size_t i = cfg.range.begin; i < cfg.range.end; ++i) {
      ++launched[i];
    }
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(launched, missing);
  EXPECT_EQ(dist.campaign.resumed, 6u);
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, CompleteJournalResumesWithoutLaunchingAWorker) {
  // A serial run's journal is the leader's journal: resuming a complete
  // one launches nothing, streams every resumed record, and renders the
  // serial bytes. journal_base may name the .jsonl file itself.
  auto spec = make_spec(uniform(6, 0.0));
  const std::string dir = fresh_dir("complete");
  const std::string path = dir + "/sweep.jsonl";
  ExperimentSpec journaled = spec;
  journaled.journal_path = path;
  const auto serial = Runner::run(journaled);
  spec.resume = true;
  auto opts = fast_opts(path, 2);
  std::vector<std::size_t> streamed;
  opts.on_record = [&](std::size_t index, const RunRecord&) {
    streamed.push_back(index);
  };
  std::size_t launches = 0;
  const LaunchHook hook = [&](WorkerConfig&) { ++launches; };
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(launches, 0u);
  EXPECT_EQ(dist.campaign.resumed, 6u);
  EXPECT_EQ(streamed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, CorruptJournalIsATypedErrorBeforeAnyFork) {
  auto spec = make_spec(uniform(4, 0.0));
  spec.resume = true;
  const std::string dir = fresh_dir("corrupt");
  write_file(dir + "/sweep.jsonl", "{torn in the middle\n");
  std::size_t launches = 0;
  const LaunchHook hook = [&](WorkerConfig&) { ++launches; };
  EXPECT_THROW(run_distributed(spec, fast_opts(dir + "/sweep", 2), {}, hook),
               JournalCorruptError);
  EXPECT_EQ(launches, 0u);
  std::remove((dir + "/sweep.jsonl").c_str());
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Socket transport (TCP frames, journal shipped to the leader)

SupervisorOptions socket_opts(const std::string& base, std::size_t workers) {
  auto opts = fast_opts(base, workers);
  opts.transport = TransportKind::kSocket;
  opts.listen_host = "127.0.0.1";
  opts.listen_port = 0;  // ephemeral
  return opts;
}

TEST(DistributedSocket, MatchesSerialRunByteForByte) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("sock_happy");
  const auto dist = run_distributed(spec, socket_opts(base, 3));
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
  EXPECT_EQ(dist.campaign.worker_fenced, 0u);
  EXPECT_TRUE(dist.campaign.worker_failures.empty());
}

TEST(DistributedSocket, StreamingMergeDeliversRecordsInGridOrder) {
  const auto spec = make_spec(uniform(10, 1.0));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("sock_stream");
  auto opts = socket_opts(base, 3);
  std::vector<std::size_t> streamed;
  opts.on_record = [&](std::size_t index, const RunRecord& rec) {
    streamed.push_back(index);
    EXPECT_EQ(rec.index, index);
  };
  const auto dist = run_distributed(spec, opts);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  // Every point streamed, exactly once, in strictly ascending grid order.
  ASSERT_EQ(streamed.size(), 10u);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], i);
  }
}

TEST(DistributedSocket, ChaosLossyLinksStillProduceIdenticalOutput) {
  const auto spec = make_spec(uniform(12, 2.0));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("sock_chaos");
  auto opts = socket_opts(base, 3);
  // Every link drops, duplicates, reorders and delays frames. The
  // correctness claim: at-least-once shipping + leader dedup + the
  // journal merge make all of this invisible in the output.
  const LaunchHook hook = [](WorkerConfig& cfg) {
    cfg.chaos.seed = 1000 + cfg.shard;
    cfg.chaos.drop = 0.15;
    cfg.chaos.duplicate = 0.15;
    cfg.chaos.reorder = 0.1;
    cfg.chaos.delay = 0.1;
    cfg.chaos.delay_ms = 10.0;
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_EQ(dist.campaign.failed, 0u);
}

TEST(DistributedSocket, CrashedWorkerIsRestartedAndOutputIsIdentical) {
  const auto spec = make_spec(uniform(12, 1.0));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("sock_crash");
  auto opts = socket_opts(base, 3);
  opts.steal = false;  // the restart path specifically
  const LaunchHook hook = [](WorkerConfig& cfg) {
    if (cfg.shard == 1 && cfg.generation == 0) {
      cfg.crash_on_index = static_cast<std::int64_t>(cfg.range.begin + 1);
    }
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
}

TEST(DistributedSocket, PartitionedWorkerIsFencedOnReconnect) {
  // The full zombie story. Shard 0's link partitions mid-shard: the
  // leader sees the connection die, waits out the liveness window,
  // declares kConnectionLost, revokes the epoch and relaunches the shard
  // — WITHOUT killing the old process (it may be unreachable, not dead).
  // The partition heals, the zombie reconnects claiming its revoked
  // epoch, and the leader must refuse it before it writes a single
  // record. Shard 2 is slow on purpose so the sweep is still running
  // when the zombie comes back.
  std::vector<double> tp;
  for (std::size_t i = 0; i < 4; ++i) tp.push_back(40.0);  // shard 0
  for (std::size_t i = 0; i < 4; ++i) tp.push_back(2.0);   // shard 1
  for (std::size_t i = 0; i < 4; ++i) tp.push_back(150.0); // shard 2
  const auto spec = make_spec(std::move(tp));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("sock_fence");
  auto opts = socket_opts(base, 3);
  opts.heartbeat_ms = 10.0;
  opts.liveness_factor = 10.0;  // 100 ms of post-disconnect silence
  opts.steal = false;  // idle seats must not reclaim the slow shard
  const LaunchHook hook = [](WorkerConfig& cfg) {
    if (cfg.shard == 0 && cfg.generation == 0) {
      cfg.chaos.seed = 77;
      cfg.chaos.partition_after = 10;  // a few beats in
      cfg.chaos.partition_ms = 250.0;  // heals while the sweep still runs
    }
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  // Identity is the non-negotiable part: the zombie's late writes were
  // fenced out, the replacement's journal is the only truth for shard 0.
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(driver::sweep_csv(dist), driver::sweep_csv(serial));
  EXPECT_GE(dist.campaign.worker_restarts, 1u);
  EXPECT_GE(dist.campaign.worker_fenced, 1u)
      << "the healed zombie should have been refused";
  bool lost_incident = false;
  for (const auto& incident : dist.campaign.worker_failures) {
    lost_incident |= incident.kind == FailureKind::kConnectionLost;
  }
  EXPECT_TRUE(lost_incident)
      << "connection loss should be its own failure class, not a wedge";
}

TEST(DistributedSocket, ReconnectingWorkerResumesWithoutDataLoss) {
  // A transient partition *shorter* than the liveness window: the leader
  // keeps the seat, the worker reconnects with the SAME epoch, retransmits
  // its unacked tail, and nothing is lost or duplicated in the output.
  const auto spec = make_spec(uniform(10, 15.0));
  const auto serial = Runner::run(spec);
  const std::string base = fresh_base("sock_reconnect");
  auto opts = socket_opts(base, 2);
  opts.heartbeat_ms = 10.0;
  opts.liveness_factor = 40.0;  // 400 ms — longer than the partition
  opts.steal = false;
  const LaunchHook hook = [](WorkerConfig& cfg) {
    if (cfg.shard == 0 && cfg.generation == 0) {
      cfg.chaos.seed = 99;
      cfg.chaos.partition_after = 8;
      cfg.chaos.partition_ms = 60.0;  // heals well inside liveness
    }
  };
  const auto dist = run_distributed(spec, opts, {}, hook);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(dist.campaign.worker_fenced, 0u)
      << "same-epoch reconnect inside the liveness window is welcome";
  EXPECT_GE(dist.campaign.worker_reconnects, 1u);
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
}

TEST(Distributed, WorkerEntryPointCompletesAShardInProcess) {
  // The test plays the leader on the other end of the worker's inherited
  // socketpair: it acks every journal frame, and the worker — which keeps
  // no journal of its own — must ship exactly its window's records.
  const auto spec = make_spec(uniform(5, 0.0));
  int link[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, link), 0);
  WorkerConfig cfg;
  cfg.range = {1, 4};
  cfg.link_fd = link[1];  // the worker owns and closes it
  cfg.heartbeat_ms = 5.0;
  int rc = -1;
  std::thread worker([&] { rc = run_worker(spec, cfg); });

  FrameDecoder decoder;
  std::vector<std::size_t> shipped;
  std::size_t heartbeats = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "worker never closed its link";
      break;  // closing our end below makes the worker wind down
    }
    pollfd pfd{link[0], POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(link[0], buf, sizeof(buf));
    if (n <= 0) break;  // the worker closed its link: it is done
    decoder.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (decoder.next(&frame) == FrameDecoder::Result::kFrame) {
      if (frame.kind == FrameKind::kHeartbeat) ++heartbeats;
      if (frame.kind != FrameKind::kJournal) continue;
      std::size_t index = 0;
      std::string line;
      driver::JournalEntry entry;
      EXPECT_TRUE(parse_journal_payload(frame.payload, &index, &line) &&
                  driver::parse_journal_line(line, &entry) &&
                  entry.rec.index == index)
          << frame.payload;
      shipped.push_back(index);
      const std::string ack =
          encode_frame({FrameKind::kJournalAck, journal_ack_payload(index)});
      EXPECT_EQ(::write(link[0], ack.data(), ack.size()),
                static_cast<ssize_t>(ack.size()));
    }
  }
  ::close(link[0]);
  worker.join();
  EXPECT_EQ(rc, kWorkerExitOk);
  EXPECT_EQ(shipped, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_GE(heartbeats, 6u);  // a start and a done beat per point
}

TEST(Distributed, InheritedLinkWithoutALeaderCancelsTheWorker) {
  // The leader's end is already closed: the worker's first send fails,
  // the link is dead for good (no reconnect on an inherited link), and
  // the worker winds down as cancelled instead of computing for nobody.
  const auto spec = make_spec(uniform(20, 20.0));  // 400 ms if run through
  int link[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, link), 0);
  ::close(link[0]);
  WorkerConfig cfg;
  cfg.range = {0, 20};
  cfg.link_fd = link[1];
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(run_worker(spec, cfg), kWorkerExitCancelled);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // Bound: at most the one point already started (20 ms) plus slack for
  // a loaded host — well under the 400 ms a full run would take.
  EXPECT_LT(ms, 250.0);
}

TEST(Distributed, WorkersWriteNoFilesTheLeaderJournalsEveryRecord) {
  // Every worker runs under RLIMIT_FSIZE 0, so any write it made to a
  // regular file would fail (EFBIG) and turn into a worker error and a
  // restart. The sweep must still finish clean: every journal line was
  // written by the leader from a shipped frame.
  const auto spec = make_spec(uniform(9, 1.0));
  const auto serial = Runner::run(spec);
  const std::string dir = fresh_dir("leader_writes");
  const WorkerBody body = [](const ExperimentSpec& wspec,
                             const WorkerConfig& cfg) {
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of a kill
    const rlimit none{0, 0};
    if (::setrlimit(RLIMIT_FSIZE, &none) != 0) return 99;
    return run_worker(wspec, cfg);
  };
  auto opts = fast_opts(dir + "/sweep", 3);
  opts.steal = false;
  const auto dist = run_distributed(spec, opts, body);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  EXPECT_EQ(dist.campaign.worker_restarts, 0u);
  EXPECT_TRUE(dist.campaign.worker_failures.empty());
  expect_one_serial_journal(dir, spec, dist);
}

TEST(Distributed, StreamingMergeDeliversRecordsInGridOrder) {
  // The inherited links feed the streaming merge the same way TCP does:
  // straight off the journal frames the leader appends.
  const auto spec = make_spec(uniform(10, 1.0));
  const auto serial = Runner::run(spec);
  auto opts = fast_opts(fresh_base("stream"), 3);
  std::vector<std::size_t> streamed;
  opts.on_record = [&](std::size_t index, const RunRecord& rec) {
    streamed.push_back(index);
    EXPECT_EQ(rec.index, index);
  };
  const auto dist = run_distributed(spec, opts);
  EXPECT_EQ(driver::sweep_json(dist), driver::sweep_json(serial));
  ASSERT_EQ(streamed.size(), 10u);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], i);
  }
}

}  // namespace
}  // namespace psync::dist
