// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around its calls into
// the program's layers: name, start, end, parent span and iteration id.
// They stay in memory and are written out when the run ends. With tracing
// off, ScopedSpan costs one relaxed load.
//
// Parents: a span opened on a thread with no open span of its own (a
// serve connection thread, a campaign pool thread) takes the innermost span
// open on the thread that enabled tracing, so work the program does on its
// own threads nests under the benchmark call that caused it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (shared by every process on the host,
/// so spans from forked workers line up with the leader's).
double now_s();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t iter = -1;    // timed iteration, -1 = set-up or checks
  double start_s = 0.0;
  double end_s = 0.0;
  std::string name;
};

class Tracer {
 public:
  static Tracer& get();

  /// Turn recording on for the calling thread's process; the caller
  /// becomes the thread whose open span parents orphan spans.
  void enable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_iteration(std::int64_t iter) { iter_.store(iter); }

  std::uint64_t open(const char* name);
  void close(std::uint64_t id);

  /// In a forked child: forget the spans inherited from the parent and
  /// draw new ids from a range of their own.
  void restart_in_child(std::uint64_t id_base);

  /// Append spans recorded elsewhere (a forked worker's file).
  void adopt(std::vector<Span> spans);

  [[nodiscard]] std::vector<Span> spans() const;

  /// One span per line: "id parent iter start end name".
  void write_lines(const std::string& path) const;
  static std::vector<Span> read_lines(const std::string& path);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> iter_{-1};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> main_top_{0};
  std::thread::id main_thread_;
  mutable std::mutex mu_;
  std::vector<Span> done_;  // guarded by mu_
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Tracer::get().enabled() ? Tracer::get().open(name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_;
};

}  // namespace perfbench
