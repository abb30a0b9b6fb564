// The four workloads. Each calls the program's public functions and wraps
// the calls in spans named <layer>.<component>.<call>.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "psync/analysis/transpose_model.hpp"
#include "psync/common/config.hpp"
#include "psync/common/journal.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/cp_compile.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/sca.hpp"
#include "psync/dist/supervisor.hpp"
#include "psync/dist/worker.hpp"
#include "psync/dram/controller.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/serve/protocol.hpp"
#include "psync/serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using psync::driver::ExperimentSpec;
using psync::driver::FrozenSpec;
using psync::driver::Session;
using psync::driver::SweepResult;

std::string digest_hex(const std::string& bytes) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(psync::driver::fnv1a64(bytes)));
  return buf;
}

void make_dirs(const std::string& path) { fs::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string served_ini(std::uint64_t seed, bool warm) {
  // waveguide_gbps is the slowest axis, so the warm grid's extra value
  // appends points and keeps the cold grid's indices (and seeds): 48 of
  // its 64 points are cache hits.
  return "[experiment]\nkind = fft2d\ninput_seed = " + std::to_string(seed) +
         "\n\n[machine]\nrows = 256\ncols = 256\n\n[sweep]\n"
         "waveguide_gbps = 160 320 640" +
         std::string(warm ? " 1280" : "") +
         "\nprocessors = 8 16 32 64\nblocks = 1 2 4 8\n";
}

namespace {

ExperimentSpec checked_spec(const std::string& ini, std::uint64_t seed) {
  ExperimentSpec spec =
      psync::driver::spec_from_config(psync::IniConfig::parse(ini));
  spec.input_seed = seed;
  std::vector<psync::ConfigError> diags;
  {
    ScopedSpan s("driver.validate");
    diags = Session::validate(spec);
  }
  if (!diags.empty()) throw diags.front();
  return spec;
}

FrozenSpec traced_freeze(const ExperimentSpec& spec) {
  ScopedSpan s("driver.freeze");
  return Session::freeze(spec);
}

/// sweep_json + sweep_csv, the bytes psync_sim prints for the result.
std::pair<std::string, std::string> render(const SweepResult& r) {
  ScopedSpan s("driver.render");
  return {psync::driver::sweep_json(r), psync::driver::sweep_csv(r)};
}

double failed_points(const SweepResult& r) {
  return static_cast<double>(std::count_if(
      r.records.begin(), r.records.end(), [](const auto& rec) {
        return rec.status != psync::driver::PointStatus::kOk;
      }));
}

double max_err(const SweepResult& r) {
  double worst = 0.0;
  for (const auto& rec : r.records) {
    worst = std::max(worst, psync::driver::metric(rec, "max_err"));
  }
  return worst;
}

std::size_t journal_lines(const std::string& dir) {
  std::size_t lines = 0;
  for (const auto& path : psync::list_journal_files(dir)) {
    lines += psync::read_journal_lines(path).size();
  }
  return lines;
}

// --- paper_fft2d ---------------------------------------------------------

class PaperFft2d final : public Workload {
 public:
  explicit PaperFft2d(const Context& ctx) : ctx_(ctx) {}

  void setup() override {
    std::ifstream in("configs/fft2d_paper_scale.ini");
    if (!in) throw std::runtime_error("cannot read configs/fft2d_paper_scale.ini");
    std::ostringstream ini;
    ini << in.rdbuf();
    frozen_ = traced_freeze(checked_spec(ini.str(), ctx_.seed));
  }

  void iterate(Record* rec) override {
    SweepResult r;
    {
      ScopedSpan s("driver.run");
      r = session_.submit(frozen_).take();
    }
    const auto [json, csv] = render(r);
    rec->text["output"] = digest_hex(json + csv);
    const auto& point = r.records.at(0);
    rec->num["failed_points"] = failed_points(r);
    rec->num["psync_total_us"] = psync::driver::metric(point, "total_us");
    rec->num["mesh_total_us"] = psync::driver::metric(point, "mesh_total_us");
    rec->num["speedup"] = psync::driver::metric(point, "speedup");
    rec->num["max_err"] = psync::driver::metric(point, "max_err");
    rec->num["mesh_max_err"] = point.mesh->max_error_vs_reference;
  }

 private:
  Context ctx_;
  FrozenSpec frozen_;
  Session session_;
};

// --- table3_transpose ------------------------------------------------------

class Table3Transpose final : public Workload {
 public:
  static constexpr std::size_t kGrid = 32;
  static constexpr std::size_t kProcs = kGrid * kGrid;
  static constexpr std::uint32_t kElements = 1024;

  explicit Table3Transpose(const Context& ctx) : ctx_(ctx) {}

  void setup() override {
    engine_ = std::make_unique<psync::core::ScaEngine>(
        psync::core::straight_bus_topology(kProcs, 8.0));
    sched_ = psync::core::compile_gather_transpose(
        kProcs, 1, static_cast<psync::core::Slot>(kElements));
    psync::Rng rng(ctx_.seed);
    data_.assign(kProcs, std::vector<psync::core::Word>(kElements));
    for (auto& node : data_) {
      for (auto& w : node) w = rng.next_u64();
    }
    dram_.row_switch_cycles = 0;
  }

  void iterate(Record* rec) override {
    psync::core::GatherResult g;
    {
      ScopedSpan s("core.sca.gather");
      g = engine_->gather(sched_, data_);
    }
    psync::dram::ServiceReport dram_rep;
    {
      ScopedSpan s("dram.stream_rows");
      psync::dram::MemoryController mc(dram_);
      const std::uint64_t total_bits =
          static_cast<std::uint64_t>(kProcs) * kElements * 64;
      dram_rep =
          mc.stream_rows(0, psync::dram::row_transactions(dram_, total_bits));
    }
    psync::analysis::TransposeParams tp;
    tp.processors = kProcs;
    tp.row_samples = kElements;

    std::string words;
    for (const auto w : g.words()) {
      words.append(reinterpret_cast<const char*>(&w), sizeof(w));
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "pscan bus_cycles=%llu slots=%zu gap_free=%d collisions=%zu "
                  "utilization=%.17g words=%s\n",
                  static_cast<unsigned long long>(dram_rep.bus_cycles),
                  g.stream.size(), g.gap_free ? 1 : 0, g.collisions.size(),
                  g.utilization, digest_hex(words).c_str());
    std::string out = line;
    rec->num["pscan_cycles"] = static_cast<double>(dram_rep.bus_cycles);
    rec->num["pscan_predicted"] =
        static_cast<double>(psync::analysis::pscan_writeback_cycles(tp));
    rec->num["gather_clean"] = g.gap_free && g.collisions.empty() ? 1.0 : 0.0;

    for (const std::uint32_t t_p : {1u, 4u}) {
      psync::core::MeshMachineParams mp;
      mp.grid = kGrid;
      mp.matrix_rows = kProcs;
      mp.matrix_cols = kElements;
      mp.elements_per_packet = 32;  // one DRAM row per packet
      mp.mi.reorder_cycles_per_element = t_p;
      mp.mi.dram.row_switch_cycles = 0;
      const std::string key = "tp" + std::to_string(t_p);
      const double t0 = now_s();
      psync::core::TransposeRunReport rep;
      {
        ScopedSpan s(t_p == 1 ? "core.mesh_machine.transpose_tp1"
                              : "core.mesh_machine.transpose_tp4");
        psync::core::MeshMachine mesh(mp);
        rep = mesh.run_transpose_writeback(kElements);
      }
      rec->num[key + "_host_s"] = now_s() - t0;
      rec->num[key + "_cycles"] = static_cast<double>(rep.completion_cycle);
      rec->num[key + "_link_traversals"] =
          static_cast<double>(rep.activity.link_traversals);
      std::snprintf(line, sizeof(line),
                    "mesh t_p=%u cycles=%lld packets=%llu link_traversals=%llu "
                    "latency=%.17g\n",
                    t_p, static_cast<long long>(rep.completion_cycle),
                    static_cast<unsigned long long>(rep.packets),
                    static_cast<unsigned long long>(rep.activity.link_traversals),
                    rep.mean_packet_latency_cycles);
      out += line;
    }
    rec->num["routers"] = static_cast<double>(kProcs);
    rec->text["output"] = digest_hex(out);
  }

 private:
  Context ctx_;
  std::unique_ptr<psync::core::ScaEngine> engine_;
  psync::core::CpSchedule sched_;
  std::vector<std::vector<psync::core::Word>> data_;
  psync::dram::DramParams dram_;  // paper DRAM: 2048-bit rows
};

// --- psync_sweep -----------------------------------------------------------

class PsyncSweep final : public Workload {
 public:
  explicit PsyncSweep(const Context& ctx) : ctx_(ctx) {}

  void setup() override {
    const std::string ini =
        "[experiment]\nkind = fft2d\n\n[machine]\nrows = 1024\ncols = 1024\n"
        "waveguide_gbps = 320\n\n[fault]\nrandom_ber = 1e-6\n\n"
        "[reliability]\npolicy = correct\n\n[sweep]\nprocessors = 64 256\n"
        "blocks = 1 8\n";
    frozen_ = traced_freeze(checked_spec(ini, ctx_.seed));
  }

  void iterate(Record* rec) override {
    const std::string dir = ctx_.scratch + "/dist" + std::to_string(iter_++);
    remove_tree(dir);
    make_dirs(dir);
    psync::dist::SupervisorOptions opts;
    opts.workers = 2;
    opts.transport = psync::dist::TransportKind::kPipe;
    opts.journal_base = dir + "/sweep";
    psync::dist::WorkerBody body;
    if (ctx_.trace) {
      // Forked workers inherit the traced fft2d workload; each writes the
      // spans it recorded to a file the leader adopts after the merge.
      const std::uint64_t base = static_cast<std::uint64_t>(iter_) << 44;
      body = [dir, base](const ExperimentSpec& spec,
                         const psync::dist::WorkerConfig& cfg) {
        Tracer::get().restart_in_child(
            base | (static_cast<std::uint64_t>(::getpid()) << 16));
        const int rc = psync::dist::run_worker(spec, cfg);
        Tracer::get().write_lines(dir + "/spans." + std::to_string(::getpid()));
        return rc;
      };
    }
    SweepResult r;
    {
      ScopedSpan s("dist.run_distributed");
      r = psync::dist::run_distributed(frozen_.spec, opts, body);
    }
    if (ctx_.trace) {
      for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("spans.", 0) == 0) {
          Tracer::get().adopt(Tracer::read_lines(entry.path().string()));
        }
      }
    }
    const auto [json, csv] = render(r);
    rec->text["output"] = digest_hex(json + csv);
    rec->num["failed_points"] = failed_points(r);
    rec->num["max_err"] = max_err(r);
    rec->num["points"] = static_cast<double>(r.records.size());
    rec->num["restarts"] = static_cast<double>(r.campaign.worker_restarts);
    rec->num["steals"] = static_cast<double>(r.campaign.worker_steals);
    rec->num["fsyncs"] = static_cast<double>(journal_lines(dir));
    remove_tree(dir);
  }

  [[nodiscard]] int threads() const override { return 2; }  // 2 workers

  /// The same spec through an in-process Session::run (threads 2, with a
  /// journal): its rendered bytes must match the merged result's, and its
  /// time is the base of the leader's overhead.
  void verify(std::vector<Record>* out) override {
    Record rec;
    rec.name = "session_run";
    const std::string dir = ctx_.scratch + "/session";
    remove_tree(dir);
    make_dirs(dir);
    ExperimentSpec spec = frozen_.spec;
    spec.threads = 2;
    spec.journal_path = dir + "/sweep.jsonl";
    try {
      const double t0 = now_s();
      SweepResult r;
      {
        ScopedSpan s("driver.session_run");
        r = Session().run(spec);
      }
      rec.wall_s = now_s() - t0;
      const auto [json, csv] = render(r);
      rec.text["output"] = digest_hex(json + csv);
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    remove_tree(dir);
    out->push_back(std::move(rec));
  }

 private:
  Context ctx_;
  FrozenSpec frozen_;
  int iter_ = 0;
};

// --- served_campaign -------------------------------------------------------

/// One blocking client connection speaking the daemon's line protocol.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + err);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line and return the reply frame; throws on a
  /// closed connection or an error frame.
  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send: connection closed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string frame = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        bool ok = false;
        if (!psync::serve::find_bool_field(frame, "ok", &ok) || !ok) {
          throw std::runtime_error("server error: " + frame);
        }
        return frame;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("recv: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Phase {
  std::string json;
  std::string csv;
  std::uint64_t points = 0;
  std::uint64_t executed = 0;
  std::uint64_t cache_hits = 0;
  double seconds = 0.0;  // submit to the last result frame
};

std::uint64_t u64_field(const std::string& frame, const char* key) {
  std::uint64_t v = 0;
  if (!psync::serve::find_u64_field(frame, key, &v)) {
    throw std::runtime_error(std::string("frame lacks ") + key + ": " + frame);
  }
  return v;
}

std::string body_field(const std::string& frame) {
  std::string body;
  if (!psync::serve::find_string_field(frame, "body", &body)) {
    throw std::runtime_error("results frame lacks a body");
  }
  return body;
}

/// Submit a grid and fetch its JSON and CSV results, as psync_submit does.
Phase submit_and_fetch(Client& c, const std::string& ini, bool warm) {
  Phase p;
  ScopedSpan phase(warm ? "serve.warm" : "serve.cold");
  const double t0 = now_s();
  std::string ack;
  {
    ScopedSpan s(warm ? "serve.submit_warm" : "serve.submit_cold");
    ack = c.request("{\"op\":\"submit\",\"config\":" +
                    psync::serve::json_string(ini) + "}");
  }
  std::string id;
  if (!psync::serve::find_string_field(ack, "campaign", &id)) {
    throw std::runtime_error("submit ack lacks a campaign id");
  }
  p.points = u64_field(ack, "points");
  std::string frame;
  for (const char* format : {"json", "csv"}) {
    ScopedSpan s("serve.results");
    frame = c.request("{\"op\":\"results\",\"campaign\":" +
                      psync::serve::json_string(id) + ",\"format\":\"" +
                      format + "\",\"wait\":true}");
    (std::strcmp(format, "json") == 0 ? p.json : p.csv) = body_field(frame);
  }
  p.seconds = now_s() - t0;
  p.executed = u64_field(frame, "executed");
  p.cache_hits = u64_field(frame, "cache_hits");
  return p;
}

class ServedCampaign final : public Workload {
 public:
  explicit ServedCampaign(const Context& ctx)
      : ctx_(ctx),
        cache_dir_(ctx.scratch + "/cache"),
        socket_(ctx.scratch + "/serve.sock") {}

  void setup() override {
    cold_ini_ = served_ini(ctx_.seed, false);
    warm_ini_ = served_ini(ctx_.seed, true);
    cold_ = traced_freeze(checked_spec(cold_ini_, ctx_.seed));
    warm_ = traced_freeze(checked_spec(warm_ini_, ctx_.seed));
    remove_tree(cache_dir_);
    make_dirs(cache_dir_);
    psync::serve::Server srv(options());
    srv.start();
    srv.stop();
  }

  void iterate(Record* rec) override {
    remove_tree(cache_dir_);
    make_dirs(cache_dir_);
    Phase cold;
    Phase warm;
    {
      psync::serve::Server srv(options());
      {
        ScopedSpan s("serve.start_cold");
        srv.start();
      }
      Client c(socket_);
      cold = submit_and_fetch(c, cold_ini_, false);
      ScopedSpan s("serve.stop");
      srv.stop();
    }
    {
      psync::serve::Server srv(options());
      {
        ScopedSpan s("serve.start");  // rescans the cold campaign's journal
        srv.start();
      }
      Client c(socket_);
      warm = submit_and_fetch(c, warm_ini_, true);
      ScopedSpan s("serve.stop");
      srv.stop();
    }
    rec->text["cold_json"] = digest_hex(cold.json);
    rec->text["cold_csv"] = digest_hex(cold.csv);
    rec->text["warm_json"] = digest_hex(warm.json);
    rec->text["warm_csv"] = digest_hex(warm.csv);
    rec->text["output"] = digest_hex(cold.json + cold.csv + warm.json + warm.csv);
    rec->num["cold_points"] = static_cast<double>(cold.points);
    rec->num["cold_executed"] = static_cast<double>(cold.executed);
    rec->num["warm_points"] = static_cast<double>(warm.points);
    rec->num["warm_executed"] = static_cast<double>(warm.executed);
    rec->num["warm_cache_hits"] = static_cast<double>(warm.cache_hits);
    rec->num["cold_s"] = cold.seconds;
    rec->num["warm_s"] = warm.seconds;
    rec->num["fsyncs"] = static_cast<double>(journal_lines(cache_dir_));
  }

  [[nodiscard]] int threads() const override { return 2; }  // 2 pool threads

  /// The same two specs through an in-process Session::run: the served
  /// result frames must equal their sweep_json / sweep_csv byte for byte.
  void verify(std::vector<Record>* out) override {
    Record rec;
    rec.name = "session_run";
    try {
      for (const bool warm : {false, true}) {
        ExperimentSpec spec = (warm ? warm_ : cold_).spec;
        spec.threads = 2;
        const auto [json, csv] = render(Session().run(spec));
        const std::string phase = warm ? "warm" : "cold";
        rec.text[phase + "_json"] = digest_hex(json);
        rec.text[phase + "_csv"] = digest_hex(csv);
      }
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    out->push_back(std::move(rec));
  }

 private:
  psync::serve::ServerOptions options() const {
    psync::serve::ServerOptions o;
    o.socket_path = socket_;
    o.cache_dir = cache_dir_;
    o.threads = 2;
    return o;
  }

  Context ctx_;
  std::string cache_dir_;
  std::string socket_;
  std::string cold_ini_;
  std::string warm_ini_;
  FrozenSpec cold_;
  FrozenSpec warm_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx) {
  if (name == "paper_fft2d") return std::make_unique<PaperFft2d>(ctx);
  if (name == "table3_transpose") return std::make_unique<Table3Transpose>(ctx);
  if (name == "psync_sweep") return std::make_unique<PsyncSweep>(ctx);
  if (name == "served_campaign") return std::make_unique<ServedCampaign>(ctx);
  return nullptr;
}

}  // namespace perfbench
