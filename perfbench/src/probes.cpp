// Layer probes: fixed-shape micro-measurements of single layers, run after
// the workload in every traced run, so each reads the same on every
// workload. Times are medians of kReps repetitions.
#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "psync/common/config.hpp"
#include "psync/common/journal.hpp"
#include "psync/common/rng.hpp"
#include "psync/core/cp_compile.hpp"
#include "psync/core/sca.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/session.hpp"
#include "psync/fft/fft.hpp"
#include "psync/fft/fft2d.hpp"
#include "psync/mesh/mesh.hpp"
#include "psync/mesh/traffic.hpp"
#include "psync/reliability/channel.hpp"
#include "psync/serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 3;

/// Median seconds of `reps` calls of `fn`.
double median_s(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

// The paper shape: 1024 nodes x 1024 words, 2^20 slots.
constexpr std::size_t kNodes = 1024;
constexpr std::size_t kWords = 1024;

void probe_sca(const Context& ctx, std::map<std::string, double>* out) {
  const psync::core::ScaEngine engine(
      psync::core::straight_bus_topology(kNodes, 8.0));
  psync::Rng rng(ctx.seed);
  std::vector<std::vector<psync::core::Word>> data(
      kNodes, std::vector<psync::core::Word>(kWords));
  for (auto& node : data) {
    for (auto& w : node) w = rng.next_u64();
  }
  const auto gather_sched = psync::core::compile_gather_transpose(
      kNodes, 1, static_cast<psync::core::Slot>(kWords));
  std::size_t slots = 0;
  const double gather_s = median_s(kReps, [&] {
    slots = engine.gather(gather_sched, data).stream.size();
  });
  std::vector<psync::core::Word> burst(kNodes * kWords);
  for (auto& w : burst) w = rng.next_u64();
  const auto scatter_sched = psync::core::compile_scatter_blocks(
      kNodes, static_cast<psync::core::Slot>(kWords));
  const double scatter_s = median_s(
      kReps, [&] { (void)engine.scatter(scatter_sched, burst); });
  (*out)["core.sca.gather_ms"] = gather_s * 1e3;
  (*out)["core.sca.scatter_ms"] = scatter_s * 1e3;
  (*out)["core.sca.slots_per_s"] = static_cast<double>(slots) / gather_s;
}

void probe_mesh(const Context& ctx, std::map<std::string, double>* out) {
  // Uniform random traffic released at once on 16x16: congested stepping,
  // no memory port in the way.
  psync::mesh::MeshParams mp;
  mp.width = 16;
  mp.height = 16;
  (*out)["mesh.uniform16_ms"] = 1e3 * median_s(kReps, [&] {
    psync::mesh::Mesh net(mp);
    std::vector<psync::mesh::ConsumeSink> sinks(net.nodes());
    for (psync::mesh::NodeId n = 0; n < net.nodes(); ++n) {
      net.set_sink(n, &sinks[n]);
    }
    psync::Rng rng(ctx.seed);
    for (const auto& d :
         psync::mesh::uniform_random_traffic(net, net.nodes() * 31, 8, rng)) {
      net.inject(d);
    }
    if (!net.run_until_drained(100'000'000)) {
      throw std::runtime_error("mesh probe did not drain");
    }
  });
}

void probe_fft(const Context& ctx, std::map<std::string, double>* out) {
  const std::size_t n = 1024;
  psync::Rng rng(ctx.seed);
  std::vector<psync::fft::Complex> input(n * n);
  for (auto& v : input) v = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  const psync::fft::FftPlan plan(n);
  auto data = input;
  std::uint64_t butterflies = 0;
  const double rows_s = median_s(kReps, [&] {
    data = input;
    butterflies = 0;
    for (std::size_t r = 0; r < n; ++r) {
      butterflies +=
          plan.forward(std::span<psync::fft::Complex>(data.data() + r * n, n))
              .butterflies;
    }
  });
  (*out)["fft.butterflies_per_s"] = static_cast<double>(butterflies) / rows_s;
  (*out)["fft.fft2d_ref_ms"] = 1e3 * median_s(kReps, [&] {
    data = input;
    (void)psync::fft::fft2d(data, n, n);
  });
}

void probe_reliability(const Context& ctx, std::map<std::string, double>* out) {
  // psync_sweep's fault settings: BER 1e-6 under the correct policy.
  psync::reliability::FaultModel fault;
  fault.random_ber = 1e-6;
  psync::reliability::ReliabilityParams rp;
  rp.policy = psync::reliability::ReliabilityPolicy::kCorrectRetry;
  psync::Rng rng(ctx.seed);
  std::vector<std::uint64_t> payload(kNodes * kWords);
  for (auto& w : payload) w = rng.next_u64();
  psync::reliability::RetryReport retry;
  const double s = median_s(kReps, [&] {
    psync::reliability::ProtectedChannel ch(fault, rp);
    retry = ch.transmit(payload).retry;
  });
  (*out)["reliability.words_per_s"] = static_cast<double>(payload.size()) / s;
  (*out)["reliability.retry_ratio"] =
      static_cast<double>(retry.blocks_retried) /
      static_cast<double>(std::max<std::uint64_t>(retry.blocks_total, 1));
}

void probe_driver(const Context& ctx, std::map<std::string, double>* out) {
  const std::string dir = ctx.scratch + "/probe";
  remove_tree(dir);
  make_dirs(dir);
  // The served cold campaign, journaled, then resumed over its complete
  // journal: every point is parsed back, none is executed.
  psync::driver::ExperimentSpec spec = psync::driver::spec_from_config(
      psync::IniConfig::parse(served_ini(ctx.seed, false)));
  spec.threads = 2;
  spec.journal_path = dir + "/resume.jsonl";
  const auto first = psync::driver::Session().run(spec);
  spec.resume = true;
  (*out)["driver.resume_ms"] =
      1e3 * median_s(kReps, [&] { (void)psync::driver::Session().run(spec); });

  // One fsync'd append of a journal-sized line, as the campaign writes
  // per completed point.
  const std::string line = psync::driver::point_json(first.records.at(0));
  psync::JournalWriter w;
  w.open(dir + "/append.jsonl", false);
  (*out)["driver.journal_append_ms"] =
      1e3 * median_s(32, [&] { w.append(line); });
  w.close();
  remove_tree(dir);
}

void probe_serve(const Context& ctx, std::map<std::string, double>* out) {
  const std::string frame = "{\"op\":\"submit\",\"config\":" +
                            psync::serve::json_string(served_ini(ctx.seed, false)) +
                            "}";
  constexpr int kCalls = 1000;
  (*out)["serve.parse_request_ms"] =
      1e3 / kCalls * median_s(kReps, [&] {
        for (int i = 0; i < kCalls; ++i) {
          psync::serve::Request req;
          if (psync::serve::parse_request(frame, &req) !=
              psync::serve::FrameError::kNone) {
            throw std::runtime_error("probe submit frame did not parse");
          }
        }
      });
}

}  // namespace

std::map<std::string, double> run_probes(const Context& ctx) {
  std::map<std::string, double> out;
  probe_sca(ctx, &out);
  probe_mesh(ctx, &out);
  probe_fft(ctx, &out);
  probe_reliability(ctx, &out);
  probe_driver(ctx, &out);
  probe_serve(ctx, &out);
  return out;
}

}  // namespace perfbench
