// Wall-clock benchmark driver and perf-regression gate.
//
// Times the simulator hot paths (mesh drain, FFT kernels, reliability
// framing, driver sweeps) and writes BENCH_psync.json. Unlike the
// bench_table*/bench_fig* binaries — which check *simulated* results
// against the paper — this binary measures *host* wall time, so CI can
// catch performance regressions:
//
//   bench_driver --quick --json BENCH_psync.json
//   bench_driver --quick --baseline BENCH_psync.json [--max-regress 25]
//
// The `*_naive` / `*_reference` entries time the pre-optimization paths
// (idle-skip disabled, strided radix-2 kernel, per-word codec), which stay
// in the tree as the ground truth for the equivalence tests. Their ratio to
// the fast entries documents the speedup and guards it against erosion.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/dist/shard.hpp"
#include "psync/dist/supervisor.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/fft/fft.hpp"
#include "psync/fft/four_step.hpp"
#include "psync/mesh/memory_interface.hpp"
#include "psync/mesh/mesh.hpp"
#include "psync/mesh/traffic.hpp"
#include "psync/perf/bench_report.hpp"
#include "psync/perf/stopwatch.hpp"
#include "psync/reliability/channel.hpp"
#include "psync/reliability/framing.hpp"

namespace {

using psync::perf::BenchEntry;
using psync::perf::BenchReport;
using psync::perf::Stopwatch;

struct BenchCase {
  std::string name;
  std::string note;
  std::uint64_t iters_full = 1;
  std::uint64_t iters_quick = 1;
  /// Runs `iters` repetitions, returns the domain-event total.
  std::function<std::uint64_t(std::uint64_t iters)> body;
};

// --- mesh ---------------------------------------------------------------
//
// Mesh entries count flit-hops (activity().link_traversals) as their
// events: unlike cycles, hops scale with the work a bigger mesh does, and
// they do not shrink when a fast-forward skips cycles.

std::uint64_t run_mesh_drain_low_load(std::uint64_t iters, bool idle_skip) {
  std::uint64_t hops = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::mesh::MeshParams mp;
    mp.width = 8;
    mp.height = 8;
    psync::mesh::Mesh net(mp);
    net.set_idle_skip(idle_skip);
    std::vector<psync::mesh::ConsumeSink> sinks(net.nodes());
    for (psync::mesh::NodeId n = 0; n < net.nodes(); ++n) {
      net.set_sink(n, &sinks[n]);
    }
    // Sparse traffic: one short packet every 16k cycles — the drain is
    // ~99% idle cycles, the idle-skip fast-forward's best case.
    for (int i = 0; i < 64; ++i) {
      psync::mesh::PacketDesc d;
      d.src = static_cast<psync::mesh::NodeId>(i % 64);
      d.dst = static_cast<psync::mesh::NodeId>((i * 37 + 5) % 64);
      d.payload_flits = 8;
      d.release_cycle = static_cast<std::int64_t>(i) * 16384;
      net.inject(d);
    }
    net.run_until_drained(10'000'000);
    hops += net.activity().link_traversals;
  }
  return hops;
}

std::uint64_t run_mesh_random_traffic(std::uint64_t iters) {
  std::uint64_t hops = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::mesh::MeshParams mp;
    mp.width = 8;
    mp.height = 8;
    psync::mesh::Mesh net(mp);
    std::vector<psync::mesh::ConsumeSink> sinks(net.nodes());
    for (psync::mesh::NodeId n = 0; n < net.nodes(); ++n) {
      net.set_sink(n, &sinks[n]);
    }
    psync::Rng rng(2026 + it);
    for (int i = 0; i < 2000; ++i) {
      psync::mesh::PacketDesc d;
      d.src = static_cast<psync::mesh::NodeId>(rng.next_u64() % 64);
      d.dst = static_cast<psync::mesh::NodeId>(rng.next_u64() % 64);
      d.payload_flits = 4 + static_cast<std::uint32_t>(rng.next_u64() % 13);
      d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 20000);
      net.inject(d);
    }
    net.run_until_drained(10'000'000);
    hops += net.activity().link_traversals;
  }
  return hops;
}

// Congested stepping at size, with optional hotspot traffic (half of all
// packets target the center node) and optional reference datapath — the
// `_reference` variants time the retained AoS implementation on identical
// traffic, so the JSON documents the SoA speedup per pattern.
std::uint64_t run_mesh_traffic(std::uint64_t iters, std::uint32_t dim,
                               bool hotspot, bool reference) {
  const bool saved = psync::mesh::reference_datapath();
  psync::mesh::set_reference_datapath(reference);
  const std::uint32_t nodes = dim * dim;
  const int packets = static_cast<int>(nodes) * 31;  // ~2k at 8x8
  std::uint64_t hops = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::mesh::MeshParams mp;
    mp.width = dim;
    mp.height = dim;
    psync::mesh::Mesh net(mp);
    std::vector<psync::mesh::ConsumeSink> sinks(net.nodes());
    for (psync::mesh::NodeId n = 0; n < net.nodes(); ++n) {
      net.set_sink(n, &sinks[n]);
    }
    const psync::mesh::NodeId center = net.node_at(dim / 2, dim / 2);
    psync::Rng rng(2026 + it);
    for (int i = 0; i < packets; ++i) {
      psync::mesh::PacketDesc d;
      d.src = static_cast<psync::mesh::NodeId>(rng.next_u64() % nodes);
      d.dst = static_cast<psync::mesh::NodeId>(rng.next_u64() % nodes);
      if (hotspot && (i & 1) != 0) d.dst = center;
      d.payload_flits = 4 + static_cast<std::uint32_t>(rng.next_u64() % 13);
      d.release_cycle = static_cast<std::int64_t>(rng.next_u64() % 20000);
      net.inject(d);
    }
    net.run_until_drained(10'000'000);
    hops += net.activity().link_traversals;
  }
  psync::mesh::set_reference_datapath(saved);
  return hops;
}

// Transpose writeback into one memory port at t_p = 4: most cycles are the
// port's reorder/DRAM countdown. With the quiet-cycle fast-forward off
// (`_naive`) every countdown cycle is stepped, so the pair's ratio is the
// fast-forward's gain on this host.
std::uint64_t run_mesh_port_countdown(std::uint64_t iters, bool idle_skip) {
  std::uint64_t hops = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::mesh::MeshParams mp;
    mp.width = 8;
    mp.height = 8;
    psync::mesh::Mesh net(mp);
    net.set_idle_skip(idle_skip);
    const auto traffic =
        psync::mesh::transpose_writeback_traffic(net, 0, 512, 32);
    psync::mesh::MemoryInterfaceParams mip;
    mip.reorder_cycles_per_element = 4;
    mip.dram.row_switch_cycles = 0;
    psync::mesh::MemoryInterface mi(mip, 63ULL * 512);
    net.set_sink(0, &mi);
    for (const auto& d : traffic) net.inject(d);
    while (!mi.done(net.cycle())) net.step();
    hops += net.activity().link_traversals;
  }
  return hops;
}

// --- fft ----------------------------------------------------------------

std::vector<psync::fft::Complex> fft_input(std::size_t n) {
  std::vector<psync::fft::Complex> x(n);
  psync::Rng rng(7);
  for (auto& v : x) {
    v = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  }
  return x;
}

std::uint64_t run_fft_kernel(std::uint64_t iters, bool fast) {
  const bool saved = psync::fft::fast_kernel();
  psync::fft::set_fast_kernel(fast);
  const std::size_t n = 4096;
  psync::fft::FftPlan plan(n);
  const auto input = fft_input(n);
  auto data = input;
  std::uint64_t butterflies = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    data = input;
    const auto ops = plan.forward(data);
    butterflies += ops.butterflies;
  }
  psync::fft::set_fast_kernel(saved);
  return butterflies;
}

std::uint64_t run_fft_four_step(std::uint64_t iters) {
  const std::size_t n = 65536;
  const auto input = fft_input(n);
  auto data = input;
  std::uint64_t butterflies = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    data = input;
    const auto ops = psync::fft::fft1d_four_step(data);
    butterflies += ops.butterflies;
  }
  return butterflies;
}

// --- reliability --------------------------------------------------------

std::uint64_t run_reliability_codec(std::uint64_t iters, bool fast) {
  const std::size_t kWords = 65536;
  const std::size_t kBlock = 64;
  std::vector<std::uint64_t> payload(kWords);
  psync::Rng rng(11);
  for (auto& w : payload) w = rng.next_u64();

  std::vector<std::uint64_t> wire;
  std::uint64_t words = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::reliability::BlockDecode dec;
    for (std::size_t off = 0; off < kWords; off += kBlock) {
      wire.clear();
      if (fast) {
        psync::reliability::encode_block(payload.data() + off, kBlock, &wire);
        psync::reliability::decode_block_into(wire.data(), kBlock, true, &dec);
      } else {
        psync::reliability::encode_block_reference(payload.data() + off,
                                                   kBlock, &wire);
        dec = psync::reliability::decode_block_reference(wire.data(), kBlock,
                                                         true);
      }
      if (!dec.good()) std::abort();  // clean wire must decode
    }
    words += kWords;
  }
  return words;
}

std::uint64_t run_reliability_channel(std::uint64_t iters) {
  const std::size_t kWords = 65536;
  std::vector<std::uint64_t> payload(kWords);
  psync::Rng rng(13);
  for (auto& w : payload) w = rng.next_u64();

  std::uint64_t words = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::reliability::FaultModel fault;
    fault.random_ber = 1e-6;
    fault.seed = 17 + it;
    psync::reliability::ReliabilityParams rp;
    rp.policy = psync::reliability::ReliabilityPolicy::kCorrectRetry;
    psync::reliability::ProtectedChannel ch(fault, rp);
    const auto tx = ch.transmit(payload);
    if (tx.retry.residual_errors != 0) std::abort();
    words += kWords;
  }
  return words;
}

// --- driver sweeps ------------------------------------------------------

std::uint64_t run_fig11_sweep(std::uint64_t iters) {
  std::uint64_t points = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::driver::ExperimentSpec spec;
    spec.workload = "fig11";
    spec.axes.push_back({"k", {1, 2, 4, 8, 16, 32, 64}});
    const auto result = psync::driver::Session().run(spec);
    points += result.records.size();
  }
  return points;
}

std::uint64_t run_fig13_sweep(std::uint64_t iters) {
  std::uint64_t points = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::driver::ExperimentSpec spec;
    spec.workload = "fig13";
    for (double c = 4; c <= 4096; c *= 4) {
      if (spec.axes.empty()) spec.axes.push_back({"cores", {}});
      spec.axes.front().values.push_back(c);
    }
    const auto result = psync::driver::Session().run(spec);
    points += result.records.size();
  }
  return points;
}

std::uint64_t run_fig13_fft2d(std::uint64_t iters, bool fast) {
  const bool saved = psync::fft::fast_kernel();
  psync::fft::set_fast_kernel(fast);
  std::uint64_t elements = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    // The fig13 measurement point re-run as a full machine simulation: a
    // 128x128 2D FFT on 16 processors with Model II (k=4) delivery,
    // verified against the monolithic reference — FFT-kernel dominated.
    psync::driver::ExperimentSpec spec;
    spec.workload = "fft2d";
    spec.machine.processors = 16;
    spec.machine.matrix_rows = 128;
    spec.machine.matrix_cols = 128;
    spec.machine.delivery_blocks = 4;
    spec.verify = true;
    const auto result = psync::driver::Session().run(spec);
    if (result.records.empty()) std::abort();
    elements += 128 * 128;
  }
  psync::fft::set_fast_kernel(saved);
  return elements;
}

// The checkpoint journal writes one fsync'd line per completed sweep point.
// This pair times the same sweep with and without the journal so the
// overhead of crash-safety stays visible — and gated — as a number.
constexpr const char* kBenchJournalPath = "bench_journal.tmp.jsonl";

std::uint64_t run_driver_sweep_fft2d(std::uint64_t iters, bool journal) {
  std::uint64_t points = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::driver::ExperimentSpec spec;
    spec.workload = "fft2d";
    spec.machine.processors = 16;
    spec.machine.matrix_rows = 256;
    spec.machine.matrix_cols = 256;
    spec.axes.push_back({"blocks", {1, 2, 4, 8}});
    if (journal) spec.journal_path = kBenchJournalPath;
    const auto result = psync::driver::Session().run(spec);
    if (!result.campaign.all_ok()) std::abort();
    points += result.records.size();
    if (journal) std::remove(kBenchJournalPath);
  }
  return points;
}

// The distributed leader adds fork/exec, heartbeat supervision, and a
// final journal merge around the same sweep. With a single worker that
// wrapper is pure overhead, so timing it against the in-process journaled
// sweep isolates the cost of distribution itself.
constexpr const char* kBenchDistBase = "bench_dist.tmp";

std::uint64_t run_driver_sweep_dist(std::uint64_t iters) {
  std::uint64_t points = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    psync::driver::ExperimentSpec spec;
    spec.workload = "fft2d";
    spec.machine.processors = 16;
    spec.machine.matrix_rows = 256;
    spec.machine.matrix_cols = 256;
    spec.axes.push_back({"blocks", {1, 2, 4, 8}});
    psync::dist::SupervisorOptions opts;
    opts.workers = 1;
    opts.journal_base = kBenchDistBase;
    const auto result = psync::dist::run_distributed(spec, opts);
    if (!result.campaign.all_ok()) std::abort();
    points += result.records.size();
    std::remove(psync::dist::shard_journal_path(kBenchDistBase, 0).c_str());
  }
  return points;
}

// --- harness ------------------------------------------------------------

std::vector<BenchCase> make_cases() {
  std::vector<BenchCase> cases;
  // Quick-mode counts for the gated entries stay >= 3 so the baseline
  // comparison is min-of-3 vs min-of-N, not min-of-1: a single descheduled
  // iteration on a shared runner would otherwise read as a regression.
  cases.push_back({"mesh_drain_low_load",
                   "8x8 mesh, 64 packets over ~1M cycles, idle-skip on",
                   20, 10,
                   [](std::uint64_t n) { return run_mesh_drain_low_load(n, true); }});
  cases.push_back({"mesh_drain_low_load_naive",
                   "same drain with idle-skip disabled (pre-optimization path)",
                   3, 1,
                   [](std::uint64_t n) { return run_mesh_drain_low_load(n, false); }});
  cases.push_back({"mesh_random_traffic",
                   "8x8 mesh, 2000 random packets (congested stepping)",
                   5, 3, run_mesh_random_traffic});
  cases.push_back({"mesh_random_traffic_reference",
                   "same traffic on the retained AoS reference datapath",
                   2, 1,
                   [](std::uint64_t n) { return run_mesh_traffic(n, 8, false, true); }});
  cases.push_back({"mesh_random_traffic_16x16",
                   "16x16 mesh, ~8000 random packets (congested stepping)",
                   3, 2,
                   [](std::uint64_t n) { return run_mesh_traffic(n, 16, false, false); }});
  cases.push_back({"mesh_random_traffic_16x16_reference",
                   "same 16x16 traffic on the AoS reference datapath",
                   1, 1,
                   [](std::uint64_t n) { return run_mesh_traffic(n, 16, false, true); }});
  cases.push_back({"mesh_hotspot",
                   "8x8 mesh, half of all packets target the center node",
                   3, 3,
                   [](std::uint64_t n) { return run_mesh_traffic(n, 8, true, false); }});
  cases.push_back({"mesh_hotspot_reference",
                   "same hotspot traffic on the AoS reference datapath",
                   1, 1,
                   [](std::uint64_t n) { return run_mesh_traffic(n, 8, true, true); }});
  cases.push_back({"mesh_port_countdown",
                   "8x8 writeback into one t_p=4 memory port, fast-forward on",
                   10, 3,
                   [](std::uint64_t n) { return run_mesh_port_countdown(n, true); }});
  cases.push_back({"mesh_port_countdown_naive",
                   "same writeback stepping every countdown cycle",
                   3, 1,
                   [](std::uint64_t n) { return run_mesh_port_countdown(n, false); }});
  cases.push_back({"fft_kernel_4096",
                   "4096-point forward FFT, fused radix-4 kernel",
                   2000, 200,
                   [](std::uint64_t n) { return run_fft_kernel(n, true); }});
  cases.push_back({"fft_kernel_4096_reference",
                   "4096-point forward FFT, strided radix-2 reference",
                   400, 50,
                   [](std::uint64_t n) { return run_fft_kernel(n, false); }});
  cases.push_back({"fft_four_step_64k",
                   "65536-point four-step FFT (shared twiddle table)",
                   20, 5, run_fft_four_step});
  cases.push_back({"reliability_codec",
                   "SECDED+CRC framing, 64k words, batched encode/decode",
                   30, 5,
                   [](std::uint64_t n) { return run_reliability_codec(n, true); }});
  cases.push_back({"reliability_codec_reference",
                   "SECDED+CRC framing, per-word reference encode/decode",
                   5, 2,
                   [](std::uint64_t n) { return run_reliability_codec(n, false); }});
  cases.push_back({"reliability_channel",
                   "ProtectedChannel correct+retry, 64k words, BER 1e-6",
                   30, 5, run_reliability_channel});
  cases.push_back({"fig11_sweep",
                   "driver k-sweep, 7 points (LLMORE closed form + models)",
                   40, 10, run_fig11_sweep});
  cases.push_back({"fig13_sweep",
                   "driver cores-sweep, 6 points (LLMORE closed form)",
                   200, 50, run_fig13_sweep});
  cases.push_back({"fig13_fft2d",
                   "fig13 point as machine sim: 128x128 fft2d, P=16, k=4",
                   10, 2,
                   [](std::uint64_t n) { return run_fig13_fft2d(n, true); }});
  cases.push_back({"fig13_fft2d_reference",
                   "same machine sim on the strided radix-2 reference kernel",
                   4, 1,
                   [](std::uint64_t n) { return run_fig13_fft2d(n, false); }});
  cases.push_back({"driver_sweep_no_journal",
                   "4-point 256x256 fft2d sweep, no checkpoint journal",
                   6, 2,
                   [](std::uint64_t n) { return run_driver_sweep_fft2d(n, false); }});
  cases.push_back({"driver_sweep_journal",
                   "same sweep with a per-point fsync'd checkpoint journal",
                   6, 2,
                   [](std::uint64_t n) { return run_driver_sweep_fft2d(n, true); }});
  cases.push_back({"driver_sweep_dist_1worker",
                   "same sweep through the distributed leader (1 worker)",
                   6, 2, run_driver_sweep_dist});
  return cases;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--quick] [--json PATH] [--baseline PATH]\n"
      "          [--max-regress PCT] [--filter SUBSTR] [--list]\n"
      "\n"
      "  --quick           reduced iteration counts (CI smoke run)\n"
      "  --json PATH       write results as JSON (default BENCH_psync.json)\n"
      "  --baseline PATH   compare against a previous JSON report; exit 1\n"
      "                    if any benchmark regressed (*_reference/*_naive\n"
      "                    oracle entries are reported but not gated)\n"
      "  --max-regress PCT allowed per-iteration slowdown (default 25)\n"
      "  --filter SUBSTR   only run benchmarks whose name contains SUBSTR\n"
      "  --list            print benchmark names and exit\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool list = false;
  std::string json_path = "BENCH_psync.json";
  std::string baseline_path;
  std::string filter;
  double max_regress = 25.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--max-regress") {
      max_regress = std::stod(next());
    } else if (arg == "--filter") {
      filter = next();
    } else if (arg == "--list") {
      list = true;
    } else {
      return usage(argv[0]);
    }
  }

  const auto cases = make_cases();
  if (list) {
    for (const auto& c : cases) std::printf("%s\n", c.name.c_str());
    return 0;
  }

  BenchReport report;
  report.quick = quick;
  std::printf("%-32s %10s %8s %14s  %s\n", "benchmark", "iters", "wall_ms",
              "per_iter_ms", "rate");
  for (const auto& c : cases) {
    if (!filter.empty() && c.name.find(filter) == std::string::npos) continue;
    BenchEntry e;
    e.name = c.name;
    e.note = c.note;
    e.iters = quick ? c.iters_quick : c.iters_full;
    c.body(1);  // untimed warmup: plan caches, twiddle tables, allocators
    // Time in up to 10 chunks and keep the fastest chunk's per-iteration
    // time: min-of-N is robust against scheduler noise on shared machines,
    // while chunking keeps per-case setup (plans, inputs) amortized.
    const std::uint64_t chunks = e.iters < 10 ? e.iters : 10;
    double min_iter = 0.0;
    for (std::uint64_t ch = 0; ch < chunks; ++ch) {
      std::uint64_t n = e.iters / chunks + (ch < e.iters % chunks ? 1 : 0);
      if (n == 0) continue;
      Stopwatch watch;
      e.events += c.body(n);
      const double ms = watch.elapsed_ms();
      e.wall_ms += ms;
      const double per = ms / static_cast<double>(n);
      if (min_iter == 0.0 || per < min_iter) min_iter = per;
    }
    e.min_iter_ms = min_iter;
    report.entries.push_back(e);
    std::printf("%-32s %10llu %8.1f %14.3f  %s\n", e.name.c_str(),
                static_cast<unsigned long long>(e.iters), e.wall_ms,
                e.per_iter_ms(),
                psync::perf::format_rate(e.events_per_sec(), "ev").c_str());
  }

  // Checkpoint-journal overhead gate: crash-safety must stay in the noise
  // next to the simulation itself. Fail only when the journaled sweep is
  // both >5% slower AND >5 ms/iter slower than the plain one — the absolute
  // floor keeps millisecond-level fsync jitter from flaking CI.
  {
    const BenchEntry* plain = nullptr;
    const BenchEntry* journaled = nullptr;
    for (const auto& e : report.entries) {
      if (e.name == "driver_sweep_no_journal") plain = &e;
      if (e.name == "driver_sweep_journal") journaled = &e;
    }
    if (plain != nullptr && journaled != nullptr &&
        plain->min_iter_ms > 0.0) {
      const double delta = journaled->min_iter_ms - plain->min_iter_ms;
      const double pct = 100.0 * delta / plain->min_iter_ms;
      std::printf("\njournal overhead: %+.3f ms/iter on %.3f ms/iter (%+.1f%%)\n",
                  delta, plain->min_iter_ms, pct);
      if (delta > 5.0 && pct > 5.0) {
        std::printf("FAIL: checkpoint journal costs more than 5%% of sweep time\n");
        return 1;
      }
    }
  }

  // Distributed-leader overhead gate: fork/exec, heartbeat supervision,
  // and the final shard merge must stay cheap next to the sweep itself.
  // Compared against the *journaled* in-process sweep — the worker also
  // journals, so the difference is distribution alone. Same dual
  // threshold shape: >10% AND >10 ms/iter, so process-spawn jitter on
  // loaded CI hosts can't flake the gate.
  {
    const BenchEntry* inproc = nullptr;
    const BenchEntry* dist = nullptr;
    for (const auto& e : report.entries) {
      if (e.name == "driver_sweep_journal") inproc = &e;
      if (e.name == "driver_sweep_dist_1worker") dist = &e;
    }
    if (inproc != nullptr && dist != nullptr && inproc->min_iter_ms > 0.0) {
      const double delta = dist->min_iter_ms - inproc->min_iter_ms;
      const double pct = 100.0 * delta / inproc->min_iter_ms;
      std::printf("dist overhead: %+.3f ms/iter on %.3f ms/iter (%+.1f%%)\n",
                  delta, inproc->min_iter_ms, pct);
      if (delta > 10.0 && pct > 10.0) {
        std::printf(
            "FAIL: distributed leader costs more than 10%% of sweep time\n");
        return 1;
      }
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << psync::perf::bench_report_json(report);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const auto baseline = psync::perf::parse_bench_report(buf.str());
    // The gate protects the fast paths. *_reference / *_naive entries are
    // the deliberately slow oracles kept around to document the speedup
    // ratio; a "regression" there is machine noise, not a lost
    // optimization, so they stay in the JSON but out of the comparison.
    const auto ungated = [](const std::string& name) {
      const auto ends_with = [&](const char* suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
      };
      return ends_with("_reference") || ends_with("_naive");
    };
    psync::perf::BenchReport gated_base = baseline;
    psync::perf::BenchReport gated_cur = report;
    std::erase_if(gated_base.entries,
                  [&](const auto& e) { return ungated(e.name); });
    std::erase_if(gated_cur.entries,
                  [&](const auto& e) { return ungated(e.name); });
    const auto cmp =
        psync::perf::compare_bench_reports(gated_base, gated_cur, max_regress);
    std::printf("\nbaseline comparison (max allowed regression %.0f%%):\n%s",
                max_regress, cmp.table().c_str());
    if (!cmp.ok) {
      std::printf("FAIL: performance regression detected\n");
      return 1;
    }
    std::printf("OK: no benchmark regressed\n");
  }
  return 0;
}
