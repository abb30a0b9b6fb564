#include "psync/oracle/reference_fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "psync/common/check.hpp"

namespace psync::oracle {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t ilog2(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

ReferenceFft::ReferenceFft(std::size_t n) : n_(n) {
  if (!is_pow2(n)) {
    throw SimulationError("ReferenceFft: size must be a power of two");
  }
  log2n_ = ilog2(n);
  rev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n_; ++b) {
      r |= ((i >> b) & 1U) << (log2n_ - 1 - b);
    }
    rev_[i] = r;
  }
  // The same expression FftPlan evaluates, so both tables hold the same
  // bits.
  twiddle_.resize(std::max<std::size_t>(n / 2, 1));
  for (std::size_t j = 0; j < twiddle_.size(); ++j) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(j) /
                       static_cast<double>(n);
    twiddle_[j] = fft::Complex(std::cos(ang), std::sin(ang));
  }
}

void ReferenceFft::bit_reverse(std::span<fft::Complex> data) const {
  PSYNC_CHECK(data.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = rev_[i];
    if (i < r) std::swap(data[i], data[r]);
  }
}

fft::OpCount ReferenceFft::run_stages(std::span<fft::Complex> data,
                                      std::size_t first_stage,
                                      std::size_t last_stage,
                                      std::size_t block_offset,
                                      std::size_t block_size) const {
  PSYNC_CHECK(data.size() == n_);
  PSYNC_CHECK(first_stage <= last_stage && last_stage <= log2n_);
  if (block_size == 0) {
    block_offset = 0;
    block_size = n_;
  }
  PSYNC_CHECK(block_offset + block_size <= n_);

  fft::OpCount ops;
  for (std::size_t s = first_stage; s < last_stage; ++s) {
    const std::size_t m = std::size_t{1} << (s + 1);
    PSYNC_CHECK_MSG(m <= block_size,
                    "butterfly span exceeds the block being computed");
    const std::size_t half = m / 2;
    const std::size_t stride = n_ / m;  // twiddle index stride
    for (std::size_t start = block_offset; start < block_offset + block_size;
         start += m) {
      for (std::size_t j = 0; j < half; ++j) {
        const fft::Complex w = twiddle_[j * stride];
        const fft::Complex t = w * data[start + half + j];
        const fft::Complex u = data[start + j];
        data[start + j] = u + t;
        data[start + half + j] = u - t;
      }
    }
    const std::uint64_t bf = block_size / 2;
    ops.butterflies += bf;
    ops.real_mults += 4 * bf;  // one complex multiply
    ops.real_adds += 6 * bf;   // complex multiply adds + two complex adds
  }
  return ops;
}

fft::OpCount ReferenceFft::forward(std::span<fft::Complex> data) const {
  bit_reverse(data);
  return run_stages(data, 0, log2n_, 0, 0);
}

fft::OpCount ReferenceFft::inverse(std::span<fft::Complex> data) const {
  PSYNC_CHECK(data.size() == n_);
  for (auto& v : data) v = std::conj(v);
  const fft::OpCount ops = forward(data);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v = std::conj(v) * inv_n;
  return ops;
}

fft::OpCount ReferenceFft::forward_blocked(
    std::span<fft::Complex> data, std::size_t k,
    std::vector<fft::OpCount>* block_ops) const {
  PSYNC_CHECK(data.size() == n_);
  if (!is_pow2(k) || k > n_) {
    throw SimulationError("forward_blocked: k must be a power of two <= N");
  }
  bit_reverse(data);
  const std::size_t bs = n_ / k;
  const std::size_t local_stages = ilog2(bs);
  if (block_ops != nullptr) block_ops->assign(k, fft::OpCount{});
  for (std::size_t b = 0; b < k; ++b) {
    const fft::OpCount ops = run_stages(data, 0, local_stages, b * bs, bs);
    if (block_ops != nullptr) (*block_ops)[b] = ops;
  }
  return run_stages(data, local_stages, log2n_, 0, 0);
}

}  // namespace psync::oracle
