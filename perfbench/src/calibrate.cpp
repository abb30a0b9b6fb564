// Host-speed calibration: a fixed kernel owned by the benchmark (no program
// code), timed before the set-up, between iterations and after the last.
// A shared host's speed drifts by tens of percent within minutes
// (neighbours on the same cores and caches); the kernel drifts with it, so
// times scaled by its time compare code rather than the moment it ran. It
// mixes the kinds of work the program does: a dependent arithmetic chain,
// a sort, hash-map inserts and lookups, and number formatting. It runs on
// as many threads as the workload keeps busy.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_sink{0};  // keeps the kernel's results live

std::uint64_t splitmix(std::uint64_t* s) {
  std::uint64_t z = (*s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double kernel_s() {
  const double t0 = now_s();
  std::uint64_t s = 7;
  double a = 1.0;
  for (int i = 0; i < 1'000'000; ++i) {
    a = a * 0.999999 + static_cast<double>(splitmix(&s) & 0xFF) * 1e-9;
  }
  std::vector<std::uint64_t> v(1 << 16);
  for (auto& x : v) x = splitmix(&s);
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::size_t i = 0; i < v.size() / 2; ++i) map[v[i * 2]] = i;
  std::uint64_t hits = 0;
  for (const auto x : v) hits += map.count(x);
  std::string text;
  char buf[32];
  for (int i = 0; i < 20'000; ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g,", a * i);
    text += buf;
  }
  g_sink.fetch_add(s + hits + text.size() + static_cast<std::uint64_t>(a),
                   std::memory_order_relaxed);
  return now_s() - t0;
}

}  // namespace

double calibrate(int threads) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> t(static_cast<std::size_t>(threads));
    {
      std::vector<std::jthread> pool;  // joined on every path out
      for (std::size_t k = 1; k < t.size(); ++k) {
        pool.emplace_back([&t, k] { t[k] = kernel_s(); });
      }
      t[0] = kernel_s();
    }
    // A parallel workload moves at the pace of its slowest thread.
    reps.push_back(*std::max_element(t.begin(), t.end()));
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

}  // namespace perfbench
