// Reader fuzz suite: the checkpoint journal codec and the journal reader
// (RecordTable::replay) face files written by processes that died at
// arbitrary instructions, and the
// other two file readers on common/json (BENCH_psync.json and
// compile_commands.json) face hand-edited and half-written files. Whatever
// the bytes, the readers must parse cleanly or raise a *typed* error —
// never crash, never silently drop a point.
//
// All randomness is a fixed-seed mt19937_64: failures reproduce exactly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/driver/runner.hpp"
#include "psync/lintpass/compile_db.hpp"
#include "psync/perf/bench_report.hpp"

namespace psync::driver {
namespace {

std::string fuzz_path(const std::string& name) {
  return testing::TempDir() + "psync_fuzz_" + std::to_string(::getpid()) +
         "_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A varied, valid journal record: knobs/metrics/failures/report
/// fragments all exercised, values drawn from the generator.
RunRecord random_record(std::mt19937_64& rng, std::size_t index) {
  RunRecord rec;
  rec.index = index;
  rec.workload = "fuzz_wl";
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  std::uniform_int_distribution<int> coin(0, 1);
  rec.knobs = {{"alpha", value(rng)}, {"beta", value(rng)}};
  if (coin(rng) != 0) {
    rec.metrics = {{"m0", value(rng), 2}, {"m1", value(rng), -1}};
  } else {
    rec.status = PointStatus::kFailed;
    rec.failure = PointFailure{FailureKind::kSimDiverged,
                               "msg \"with\" \\escapes\n and \t control", 2};
  }
  if (coin(rng) != 0) {
    rec.psync_json = "{\"total_ns\":" + std::to_string(value(rng)) +
                     ",\"phases\":[{\"name\":\"p0\"}]}";
  }
  return rec;
}

TEST(JournalFuzz, RandomTruncationNeverParsesAndNeverCrashes) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 200; ++iter) {
    const RunRecord rec = random_record(rng, static_cast<std::size_t>(iter));
    const std::string line = journal_line(rec, rng());
    JournalEntry entry;
    ASSERT_TRUE(parse_journal_line(line, &entry));
    std::uniform_int_distribution<std::size_t> cut(0, line.size() - 1);
    const std::string truncated = line.substr(0, cut(rng));
    EXPECT_FALSE(parse_journal_line(truncated, &entry))
        << "truncated journal line parsed as complete: " << truncated;
  }
}

TEST(JournalFuzz, RandomByteMutationsParseCleanlyOrFail) {
  std::mt19937_64 rng(0xBADF00D);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 300; ++iter) {
    const RunRecord rec = random_record(rng, static_cast<std::size_t>(iter));
    std::string line = journal_line(rec, rng());
    std::uniform_int_distribution<std::size_t> pos(0, line.size() - 1);
    const std::size_t mutations = 1 + (rng() % 4);
    for (std::size_t m = 0; m < mutations; ++m) {
      line[pos(rng)] = static_cast<char>(byte(rng));
    }
    // A mutation may happen to keep the line valid (e.g. a digit swap in a
    // metric); the contract is only: a clean bool verdict, no crash, no
    // exception escaping as anything but a typed SimulationError.
    JournalEntry entry;
    try {
      (void)parse_journal_line(line, &entry);
    } catch (const SimulationError&) {
      ADD_FAILURE() << "parse_journal_line leaked an exception for: " << line;
    }
  }
}

TEST(JournalFuzz, RandomBinaryFilesReadAsLinesWithoutCrashing) {
  std::mt19937_64 rng(0x5EED);
  std::uniform_int_distribution<int> byte(0, 255);
  const std::string path = fuzz_path("binary.jsonl");
  for (int iter = 0; iter < 20; ++iter) {
    std::string blob;
    const std::size_t len = rng() % 4096;
    blob.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      blob.push_back(static_cast<char>(byte(rng)));
    }
    write_file(path, blob);
    JournalEntry entry;
    for (const auto& line : read_journal_lines(path)) {
      (void)parse_journal_line(line, &entry);  // must not crash
    }
  }
  std::remove(path.c_str());
}

TEST(JournalFuzz, MidFileGarbageIsATypedMergeError) {
  std::mt19937_64 rng(0xD15EA5E);
  auto points = std::vector<RunPoint>(4);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].index = i;
    points[i].seed = rng();
  }
  const std::string path = fuzz_path("garbage.jsonl");
  RunRecord rec = random_record(rng, 1);
  write_file(path, journal_line(rec, points[1].seed) +
                       "\n%% mid-line garbage %%\n" +
                       journal_line(random_record(rng, 2), points[2].seed) +
                       "\n");
  RecordTable table(points, "fuzz_wl");
  EXPECT_THROW(table.replay(path), JournalCorruptError);
  std::remove(path.c_str());
}

TEST(JournalFuzz, DuplicatedPointLinesNeverSilentlyDrop) {
  // Duplicates with agreeing status are counted; a flipped status is a
  // typed conflict. Either way the reader never quietly picks one.
  std::mt19937_64 rng(0xFACADE);
  auto points = std::vector<RunPoint>(3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].index = i;
    points[i].seed = rng();
  }
  RunRecord rec;
  rec.index = 1;
  rec.workload = "fuzz_wl";
  rec.metrics = {{"m", 1.25, 2}};
  const std::string line = journal_line(rec, points[1].seed);
  const std::string path = fuzz_path("dup.jsonl");
  write_file(path, line + "\n" + line + "\n" + line + "\n");
  RecordTable table(points, "fuzz_wl");
  EXPECT_EQ(table.replay(path), (std::vector<std::size_t>{1}));
  EXPECT_EQ(table.duplicates(), 2u);
  EXPECT_EQ(table.present(), (std::vector<char>{0, 1, 0}));

  RunRecord flipped = rec;
  flipped.status = PointStatus::kFailed;
  flipped.metrics.clear();
  flipped.failure = PointFailure{FailureKind::kInternalError, "x", 1};
  write_file(path,
             line + "\n" + journal_line(flipped, points[1].seed) + "\n");
  RecordTable fresh(points, "fuzz_wl");
  EXPECT_THROW(fresh.replay(path), JournalConflictError);
  std::remove(path.c_str());
}

TEST(JournalFuzz, RandomShardInterleavingsMergeIdentically) {
  // Shards deliver one grid's records to the leader's single journal in
  // any order: every shuffle of the lines must replay to the same
  // grid-order records.
  std::mt19937_64 rng(0xAB1E);
  constexpr std::size_t kPoints = 24;
  auto points = std::vector<RunPoint>(kPoints);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kPoints; ++i) {
    points[i].index = i;
    points[i].seed = rng();
    lines.push_back(journal_line(random_record(rng, i), points[i].seed));
  }
  const std::string path = fuzz_path("ileave.jsonl");
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<std::string> shuffled = lines;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::string content;
    for (const auto& line : shuffled) content += line + "\n";
    write_file(path, content);
    RecordTable table(points, "fuzz_wl");
    EXPECT_EQ(table.replay(path).size(), kPoints);
    EXPECT_EQ(table.duplicates(), 0u);
    for (std::size_t i = 0; i < kPoints; ++i) {
      ASSERT_TRUE(table.has(i));
      EXPECT_EQ(table[i].index, i);
      // Re-rendering the replayed record must reproduce the original
      // bytes — the identity resumed output's determinism stands on.
      EXPECT_EQ(journal_line(table[i], points[i].seed), lines[i]);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// BENCH_psync.json and compile_commands.json

/// Parse `text`; true for a value, false for the reader's typed error. Any
/// other exception is a test failure.
template <typename TypedError, typename Parse>
bool parses(const Parse& parse, const std::string& text) {
  try {
    parse(text);
    return true;
  } catch (const TypedError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped exception '" << e.what() << "' for: " << text;
    return false;
  }
}

/// Every cut short of the document's last byte is the typed error, and
/// random byte mutations give a value or the typed error, nothing else.
template <typename TypedError, typename Parse>
void fuzz_reader(const Parse& parse, const std::string& doc,
                 std::uint64_t seed) {
  ASSERT_TRUE(parses<TypedError>(parse, doc));
  const std::size_t body = doc.find_last_not_of(" \n") + 1;
  for (std::size_t len = 0; len < body; ++len) {
    EXPECT_FALSE(parses<TypedError>(parse, doc.substr(0, len)))
        << "prefix of length " << len << " parsed";
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> pos(0, doc.size() - 1);
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = doc;
    const std::size_t mutations = 1 + (rng() % 4);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutated[pos(rng)] = static_cast<char>(byte(rng));
    }
    (void)parses<TypedError>(parse, mutated);
  }
}

TEST(JsonReaderFuzz, BenchReportTruncationsAndMutationsStayTyped) {
  psync::perf::BenchReport report;
  report.quick = true;
  report.entries.push_back(
      {"mesh_drain", 120.5, 1.125, 100, 2'000'000, "idle-skip \"drain\""});
  report.entries.push_back({"fft_kernel", 50.0, 0.0, 10, 0, "a\\b\nc"});
  const auto parse = [](const std::string& t) {
    (void)psync::perf::parse_bench_report(t);
  };
  const std::string doc = psync::perf::bench_report_json(report);
  fuzz_reader<SimulationError>(parse, doc, 0xBE7C4);
}

TEST(JsonReaderFuzz, CompileDbTruncationsAndMutationsStayTyped) {
  const std::string db = R"([
  {"directory": "/repo/build", "command": "c++ -DX=\"y\" -c a.cpp",
   "file": "../src/psync/core/trace.cpp", "output": "trace.o"},
  {"directory": "/repo/build", "arguments": ["c++", "-c", "b.cpp", 1, true,
   null, {"k": []}], "file": "/repo/tools/psync_lint.cpp"}
])";
  const auto parse = [](const std::string& t) {
    (void)psync::lintpass::compile_db_files(t);
  };
  fuzz_reader<psync::lintpass::CompileDbError>(parse, db, 0xC0DB);
}

}  // namespace
}  // namespace psync::driver
