// Test oracle for the FFT stage kernel: the original strided radix-2
// decimation-in-time loop, on its own twiddle table.
//
// fft::FftPlan runs a two-stage-fused, cache-blocked kernel (with AVX2/NEON
// bodies where the CPU has them) that performs the same real multiplies and
// adds per element as this loop, on bit-identical twiddle factors. The
// equivalence tests (FftFastKernel.*, SimdKernels.*) compare the two
// bit for bit, and bench_driver's `fft_kernel_4096_reference` entry times
// this class so the kernel's speedup stays measured. Test/bench only: no
// library under src/psync links or includes it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "psync/fft/fft.hpp"

namespace psync::oracle {

class ReferenceFft {
 public:
  /// N-point transforms, N a power of two (N >= 1).
  explicit ReferenceFft(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DIT FFT; same contract as fft::FftPlan::forward.
  fft::OpCount forward(std::span<fft::Complex> data) const;
  /// In-place inverse FFT (scaled by 1/N).
  fft::OpCount inverse(std::span<fft::Complex> data) const;
  /// Blocked forward FFT in k delivery blocks; same contract as
  /// fft::FftPlan::forward_blocked.
  fft::OpCount forward_blocked(std::span<fft::Complex> data, std::size_t k,
                               std::vector<fft::OpCount>* block_ops =
                                   nullptr) const;

 private:
  void bit_reverse(std::span<fft::Complex> data) const;
  fft::OpCount run_stages(std::span<fft::Complex> data,
                          std::size_t first_stage, std::size_t last_stage,
                          std::size_t block_offset,
                          std::size_t block_size) const;

  std::size_t n_;
  std::size_t log2n_ = 0;
  std::vector<std::size_t> rev_;
  std::vector<fft::Complex> twiddle_;  // exp(-2*pi*i*j/N), j < N/2
};

}  // namespace psync::oracle
