// Test oracles for the reliability codecs: the byte-at-a-time CRC-32 loop,
// the per-word SECDED batch decode, and the per-word block framing loops.
//
// The production codecs (reliability/crc32.hpp, secded.hpp, framing.hpp)
// fold CRC-32 slice-by-8 or with PCLMUL carry-less multiplies and screen
// SECDED words four at a time with AVX2 where the CPU has them; every path
// produces the same bytes as these loops. The equivalence tests
// (ReliabilityBatch.*, SimdKernels.*) compare against them, and
// bench_driver's `reliability_codec_reference` entry times the framing
// oracles so the batched codec's speedup stays measured. Test/bench only:
// no library under src/psync links or includes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "psync/reliability/framing.hpp"
#include "psync/reliability/secded.hpp"

namespace psync::oracle {

/// Byte-at-a-time CRC-32 fold; same contract as
/// reliability::crc32_update (the result is not finalized).
std::uint32_t crc32_update_reference(std::uint32_t crc, const void* data,
                                     std::size_t len);

/// reliability::secded_decode applied to each word in turn, with the
/// counters reliability::secded_decode_words accumulates.
void secded_decode_words_reference(const std::uint64_t* data,
                                   const std::uint8_t* checks,
                                   std::size_t count, bool correct,
                                   std::uint64_t* out,
                                   reliability::SecdedWordStats* stats);

/// Per-word encode/decode of one framed block; same wire layout and
/// results as reliability::encode_block / decode_block.
void encode_block_reference(const std::uint64_t* payload, std::size_t n,
                            std::vector<std::uint64_t>* wire);
reliability::BlockDecode decode_block_reference(const std::uint64_t* wire,
                                                std::size_t n, bool correct);

}  // namespace psync::oracle
