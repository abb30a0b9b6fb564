// psync_perfbench: runs one benchmark workload and prints one JSON report
// of raw observations (set-up times, per-iteration wall times and output
// digests, verification records, spans and probes when traced, peak RSS,
// host fingerprint). perfbench/run.py builds this binary, runs it from the
// checkout root and turns the report into the benchmark's metrics.
//
//   psync_perfbench --workload NAME --seed N --seconds S --trace 0|1
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "json.hpp"
#include "psync/common/simd_dispatch.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psync_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

void write_record(Json& j, const Record& r) {
  j.begin_object().key("name").value(r.name).key("wall_s").value(r.wall_s);
  j.key("text").begin_object();
  for (const auto& [k, v] : r.text) j.key(k).value(v);
  j.end_object().key("num").begin_object();
  for (const auto& [k, v] : r.num) j.key(k).value(v);
  j.end_object().key("error").value(r.error).end_object();
}

std::string simd_level() {
  if (psync::simd::force_scalar()) return "scalar (forced)";
  std::string level;
  if (psync::simd::have_avx2()) level += "avx2 ";
  if (psync::simd::have_pclmul()) level += "pclmul ";
  if (psync::simd::have_neon()) level += "neon ";
  if (level.empty()) return "scalar";
  level.pop_back();
  return level;
}

/// Peak resident set of this process and of its largest reaped child
/// (psync_sweep's forked workers), in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Set-up timings: at least 3 and for at least 0.05 s, so a set-up of
/// microseconds still gets a steady median.
std::vector<double> setup_batch(Workload& wl) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 3 || (now_s() - start < 0.05 && t.size() < 2000)) {
    const double t0 = now_s();
    wl.setup();
    t.push_back(now_s() - t0);
  }
  return t;
}

int run(int argc, char** argv) {
  std::string workload;
  Context ctx;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      seconds = std::stod(val);
    } else if (flag == "--trace") {
      trace = std::stoi(val);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  ctx.trace = trace == 1;
  ctx.scratch = ".bench_build/run/" + std::to_string(::getpid());
  auto wl = make_workload(workload, ctx);
  if (!wl) {
    std::fprintf(stderr, "psync_perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  remove_tree(ctx.scratch);
  make_dirs(ctx.scratch);
  Tracer& tracer = Tracer::get();
  if (ctx.trace) {
    tracer.enable();
    register_traced_fft2d();
  }

  // Each iteration is preceded by a calibration and a batch of set-ups;
  // one more calibration closes the run, so every timed block sits between
  // two calibrations. At least 3 iterations, then until the budget is spent.
  std::vector<double> calibration;
  std::vector<std::vector<double>> setup_s;
  std::vector<Record> iterations;
  const double run0 = now_s();
  for (std::int64_t i = 0;
       i < 3 || (now_s() - run0 < seconds && i < 100000); ++i) {
    calibration.push_back(calibrate(wl->threads()));
    tracer.set_iteration(-1);
    setup_s.push_back(setup_batch(*wl));
    tracer.set_iteration(i);
    Record rec;
    rec.name = "iteration";
    const double t0 = now_s();
    try {
      ScopedSpan s("bench.iteration");
      wl->iterate(&rec);
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    rec.wall_s = now_s() - t0;
    iterations.push_back(std::move(rec));
  }
  calibration.push_back(calibrate(wl->threads()));
  tracer.set_iteration(-1);

  std::vector<Record> checks;
  wl->verify(&checks);
  std::map<std::string, double> probes;
  if (ctx.trace) {
    try {
      probes = run_probes(ctx);
    } catch (const std::exception& e) {
      Record rec;
      rec.name = "probes";
      rec.error = e.what();
      checks.push_back(std::move(rec));
    }
  }
  remove_tree(ctx.scratch);

  Json j;
  j.begin_object().key("workload").value(workload).key("seed").value(ctx.seed);
  j.key("trace").value(ctx.trace);
  j.key("setup_s").begin_array();
  for (const auto& batch : setup_s) {
    j.begin_array();
    for (const double s : batch) j.value(s);
    j.end_array();
  }
  j.end_array().key("iterations").begin_array();
  for (const auto& r : iterations) write_record(j, r);
  j.end_array().key("calibration_s").begin_array();
  for (const double c : calibration) j.value(c);
  j.end_array().key("checks").begin_array();
  for (const auto& r : checks) write_record(j, r);
  j.end_array().key("probes").begin_object();
  for (const auto& [k, v] : probes) j.key(k).value(v);
  j.end_object().key("peak_rss_mb").value(peak_rss_mb());
  j.key("host").begin_object();
  j.key("compiler").value(__VERSION__);
  j.key("build_type").value(PERFBENCH_BUILD_TYPE);
  j.key("simd").value(simd_level());
  const char* force = std::getenv("PSYNC_FORCE_SCALAR");
  j.key("PSYNC_FORCE_SCALAR").value(force ? force : "");
  j.key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.end_object().key("spans").begin_array();
  for (const auto& s : tracer.spans()) {
    j.begin_array()
        .value(s.id)
        .value(s.parent)
        .value(s.iter)
        .value(s.start_s)
        .value(s.end_s)
        .value(s.name)
        .end_array();
  }
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psync_perfbench: %s\n", e.what());
    return 1;
  }
}
