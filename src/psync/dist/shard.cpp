#include "psync/dist/shard.hpp"

#include <algorithm>

namespace psync::dist {

std::vector<ShardRange> plan_shards(const std::vector<char>& recorded,
                                    std::size_t workers) {
  workers = std::max<std::size_t>(workers, 1);
  std::vector<ShardRange> gaps;
  std::size_t missing = 0;
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    if (recorded[i] != 0) continue;
    if (gaps.empty() || gaps.back().end != i) gaps.push_back({i, i});
    ++gaps.back().end;
    ++missing;
  }
  std::vector<ShardRange> out;
  for (const auto& gap : gaps) {
    const std::size_t share = (workers * gap.size() + missing - 1) / missing;
    for (const auto& piece : split_range(gap, share)) out.push_back(piece);
  }
  return out;
}

std::vector<ShardRange> split_range(const ShardRange& range,
                                    std::size_t pieces) {
  std::vector<ShardRange> out;
  const std::size_t n = range.size();
  if (n == 0) return out;
  pieces = std::clamp<std::size_t>(pieces, 1, n);
  const std::size_t base = n / pieces;
  const std::size_t extra = n % pieces;
  std::size_t at = range.begin;
  for (std::size_t i = 0; i < pieces; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    out.push_back({at, at + len});
    at += len;
  }
  return out;
}

}  // namespace psync::dist
