// The traced run's fft2d workload: the registry's built-in fft2d workload,
// call for call, with spans around its calls into the driver and the two
// machines. Its rendered output is checked against the same goldens as the
// untraced run's, so a copy that drifted from the built-in shows up as
// failed operations.
#include "bench.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/core/psync_machine.hpp"
#include "psync/driver/workload.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using psync::driver::RunPoint;
using psync::driver::RunRecord;

class TracedFft2d final : public psync::driver::Workload {
 public:
  std::string name() const override { return "fft2d"; }

  RunRecord run(const RunPoint& pt) const override {
    ScopedSpan point("driver.point");
    RunRecord rec;
    std::vector<std::complex<double>> input;
    {
      ScopedSpan s("driver.input");
      input = psync::driver::random_input(
          pt.machine.matrix_rows * pt.machine.matrix_cols, pt.seed);
    }
    {
      ScopedSpan s("core.psync_machine.run");
      psync::core::PsyncMachine m(pt.machine);
      m.set_cancel(pt.cancel);
      rec.psync = m.run_fft2d(input, pt.verify);
    }
    const auto& rep = *rec.psync;
    rec.metrics.push_back({"total_us", rep.total_ns * 1e-3, 2});
    rec.metrics.push_back({"efficiency_pct", rep.compute_efficiency * 100.0, 1});
    rec.metrics.push_back({"gflops", rep.gflops, 2});
    rec.metrics.push_back({"energy_nj", rep.total_energy_pj() * 1e-3, 1});
    const auto pipe = psync::core::PsyncMachine::pipeline_estimate(rep);
    rec.metrics.push_back({"frames_per_sec", pipe.frames_per_sec, 0});
    if (pt.verify) {
      rec.metrics.push_back({"max_err", rep.max_error_vs_reference, -1});
    }
    if (pt.with_mesh) {
      {
        ScopedSpan s("core.mesh_machine.fft2d");
        psync::core::MeshMachine mm(pt.mesh);
        mm.set_cancel(pt.cancel);
        rec.mesh = mm.run_fft2d(input, pt.verify);
      }
      const auto& mesh = *rec.mesh;
      rec.metrics.push_back({"mesh_total_us", mesh.total_ns * 1e-3, 2});
      rec.metrics.push_back({"mesh_gflops", mesh.gflops, 2});
      rec.metrics.push_back({"mesh_energy_nj", mesh.total_energy_pj() * 1e-3, 1});
      rec.metrics.push_back({"speedup", mesh.total_ns / rep.total_ns, 2});
      rec.metrics.push_back(
          {"energy_advantage", mesh.total_energy_pj() / rep.total_energy_pj(), 2});
    }
    return rec;
  }
};

}  // namespace

void register_traced_fft2d() {
  psync::driver::register_workload(std::make_unique<TracedFft2d>());
}

}  // namespace perfbench
