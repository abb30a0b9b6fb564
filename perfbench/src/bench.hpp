// The benchmark's workloads and layer probes. Each workload is set up
// several times (set-up time), then iterated for the run's time budget
// (wall time per iteration); every iteration leaves a Record of what the
// output checks read: digests of the rendered output and named simulated
// statistics. run.py judges the records; this binary only observes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What every workload is told. Paths are relative to the checkout root,
/// the working directory.
struct Context {
  std::string scratch;  // per-process scratch directory
  std::uint64_t seed = 2026;
  bool trace = false;
};

/// Observations of one checked operation.
struct Record {
  std::string name;  // "iteration" or the verification's name
  double wall_s = 0.0;
  std::map<std::string, std::string> text;  // output digests
  std::map<std::string, double> num;        // simulated stats and counts
  std::string error;                        // what the operation threw
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first point runs. Called several times and
  /// timed; the last call's state serves the iterations.
  virtual void setup() = 0;
  /// One timed iteration of the paper artifact.
  virtual void iterate(Record* rec) = 0;
  /// Once per run, after the iterations: the path-identity references.
  virtual void verify(std::vector<Record>* out) { (void)out; }
  /// Threads the workload keeps busy (the calibration kernel runs on as
  /// many).
  [[nodiscard]] virtual int threads() const { return 1; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx);

/// Seconds the host-speed calibration kernel takes now on `threads`
/// threads at once (the slowest thread's, median of 5).
double calibrate(int threads);

/// Fixed-shape layer micro-measurements for the traced run.
std::map<std::string, double> run_probes(const Context& ctx);

/// Replace the registry's fft2d workload with a copy that records spans
/// around its calls into the driver and core layers (traced run only).
void register_traced_fft2d();

/// FNV-1a digest of `bytes` as 16 hex digits.
std::string digest_hex(const std::string& bytes);

/// The INI text of the served campaign's cold (48-point) or warm
/// (64-point) grid.
std::string served_ini(std::uint64_t seed, bool warm);

void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace perfbench
