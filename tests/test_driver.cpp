// Driver subsystem: Workload registry dispatch, SweepEngine grid expansion
// and thread-pool determinism (parallel == serial, byte for byte), and the
// shared FftPlan cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "psync/common/check.hpp"
#include "psync/common/config.hpp"
#include "psync/core/mesh_machine.hpp"
#include "psync/driver/runner.hpp"
#include "psync/driver/sweep.hpp"
#include "psync/fft/plan_cache.hpp"

namespace psync::driver {
namespace {

// Small machine so every workload runs in milliseconds.
ExperimentSpec small_spec(const std::string& workload) {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.machine.processors = 4;
  spec.machine.matrix_rows = 16;
  spec.machine.matrix_cols = 16;
  spec.machine.delivery_blocks = 2;
  spec.mesh.grid = 2;
  spec.mesh.matrix_rows = 16;
  spec.mesh.matrix_cols = 16;
  spec.mesh.elements_per_packet = 16;
  spec.transpose_elements = 32;
  return spec;
}

TEST(WorkloadRegistry, ListsEveryBuiltinKind) {
  const auto names = workload_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* kind : {"fft2d", "fft1d", "transpose", "pipeline", "mesh",
                           "reliability", "degradation_sweep", "fig11",
                           "fig13"}) {
    EXPECT_TRUE(have.count(kind)) << "missing builtin workload: " << kind;
  }
}

TEST(WorkloadRegistry, UnknownKindThrowsNamingKnownKinds) {
  try {
    (void)find_workload("fft3d");
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("fft3d"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fft2d"), std::string::npos);
  }
}

TEST(WorkloadRegistry, EveryKindDispatchesAndProducesMetrics) {
  for (const auto& kind : workload_names()) {
    auto spec = small_spec(kind);
    if (kind == "fig11") spec.axes.push_back({"k", {4}});
    if (kind == "fig13") spec.axes.push_back({"cores", {16}});
    const auto result = Runner::run(spec);
    ASSERT_EQ(result.records.size(), 1u) << kind;
    const auto& rec = result.records.front();
    EXPECT_EQ(rec.workload, kind);
    EXPECT_FALSE(rec.metrics.empty()) << kind;
    for (const auto& m : rec.metrics) {
      EXPECT_TRUE(std::isfinite(m.value)) << kind << "." << m.name;
    }
  }
}

TEST(WorkloadRegistry, MetricLookupThrowsOnMissingName) {
  const auto result = Runner::run(small_spec("transpose"));
  const auto& rec = result.records.front();
  EXPECT_GT(metric(rec, "cycles"), 0.0);
  EXPECT_THROW((void)metric(rec, "no_such_metric"), SimulationError);
}

TEST(SweepEngine, PointSeedIsDeterministicAndIndexDependent) {
  const auto s0 = SweepEngine::point_seed(2026, 0);
  EXPECT_EQ(s0, SweepEngine::point_seed(2026, 0));
  EXPECT_NE(s0, SweepEngine::point_seed(2026, 1));
  EXPECT_NE(s0, SweepEngine::point_seed(2027, 0));
}

TEST(SweepEngine, ExpandsCartesianGridRowMajor) {
  auto spec = small_spec("fft2d");
  spec.axes.push_back({"blocks", {1, 2}});
  spec.axes.push_back({"processors", {4, 8, 16}});
  const auto points = SweepEngine::expand(spec);
  ASSERT_EQ(points.size(), 6u);
  // First axis slowest: blocks=1 for the first three points.
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    ASSERT_EQ(points[i].knobs.size(), 2u);
    EXPECT_EQ(points[i].knobs[0].first, "blocks");
    EXPECT_EQ(points[i].knobs[1].first, "processors");
    EXPECT_DOUBLE_EQ(points[i].knobs[0].second, i < 3 ? 1.0 : 2.0);
    const double procs[] = {4.0, 8.0, 16.0};
    EXPECT_DOUBLE_EQ(points[i].knobs[1].second, procs[i % 3]);
    // Knobs are applied to the parameter blocks, not just recorded.
    EXPECT_EQ(points[i].machine.delivery_blocks, i < 3 ? 1u : 2u);
    EXPECT_EQ(points[i].machine.processors,
              static_cast<std::size_t>(procs[i % 3]));
    EXPECT_EQ(points[i].seed, SweepEngine::point_seed(spec.input_seed, i));
  }
}

TEST(SweepEngine, NoAxesYieldsSinglePoint) {
  const auto points = SweepEngine::expand(small_spec("fft2d"));
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points.front().knobs.empty());
}

TEST(SweepEngine, UnknownKnobThrows) {
  auto spec = small_spec("fft2d");
  spec.axes.push_back({"procesors", {4, 8}});
  EXPECT_THROW((void)SweepEngine::expand(spec), SimulationError);
}

TEST(SweepEngine, ApplyKnobRejectsUnknownNames) {
  core::PsyncMachineParams m;
  core::MeshMachineParams mm;
  for (const auto& knob : known_knobs()) {
    EXPECT_TRUE(apply_knob(knob, 2.0, &m, &mm)) << knob;
  }
  EXPECT_FALSE(apply_knob("warp_factor", 9.0, &m, &mm));
}

// Regression: count-valued knobs used to be cast straight from double to an
// unsigned type — UB for negative values, silent truncation for fractional
// ones (a sweep would record processors = 16.5 but simulate 16).
TEST(SweepEngine, ApplyKnobRejectsNonIntegerCounts) {
  core::PsyncMachineParams m;
  core::MeshMachineParams mm;
  EXPECT_THROW((void)apply_knob("processors", -1.0, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("processors", 16.5, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("t_p", -4.0, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("virtual_channels", 2.25, &m, &mm),
               ConfigError);
  EXPECT_THROW((void)apply_knob("k", std::nan(""), &m, &mm), ConfigError);
  // Out of the target type or the model's range.
  EXPECT_THROW((void)apply_knob("virtual_channels", 4294967297.0, &m, &mm),
               ConfigError);
  EXPECT_THROW((void)apply_knob("virtual_channels", 17.0, &m, &mm),
               ConfigError);
  EXPECT_THROW((void)apply_knob("grid", 65536.0, &m, &mm), ConfigError);
  // fig11/fig13 read k and cores straight from the knob list: k = 0 died
  // with SIGFPE, and cores = -1 or 2.5 ran a cast-mangled core count.
  EXPECT_THROW((void)apply_knob("k", 0.0, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("cores", -1.0, &m, &mm), ConfigError);
  EXPECT_THROW((void)apply_knob("cores", 2.5, &m, &mm), ConfigError);
  // Exact integral values still apply.
  EXPECT_TRUE(apply_knob("processors", 16.0, &m, &mm));
  EXPECT_EQ(m.processors, 16u);
  EXPECT_TRUE(apply_knob("t_p", 4.0, &m, &mm));
  EXPECT_EQ(mm.mi.reorder_cycles_per_element, 4u);
}

// Regression: config integers used to be cast straight to unsigned.
// buffer_depth = -1 then spun forever, elements_per_packet = 0 died with
// SIGFPE, grid = -1 ran a 1x1 mesh, values past 2^32 wrapped, t_p = -1 ran
// into the cycle cap, and outside [mesh] threads = -2, elements = 2^32,
// spare_lanes = -1 and max_point_mb = -1 ran with a wrapped value. Each row
// must be a ConfigError naming the key, raised by the time the machine is
// built — before any cycle is stepped. (The last row used to crash the
// process, so it stays last.)
TEST(SpecFromConfig, OutOfRangeMeshIntegersAreConfigErrors) {
  struct Row {
    const char* section;
    const char* key;
    const char* value;
  };
  const Row rows[] = {
      {"experiment", "elements", "4294967296"},
      {"experiment", "elements", "-1"},
      {"experiment", "input_seed", "-1"},
      {"experiment", "threads", "-2"},
      {"guard", "max_retries", "-1"},
      {"guard", "max_point_mb", "-1"},
      {"guard", "max_point_mb", "17592186044416"},  // 2^44 MiB: bytes wrap
      {"machine", "processors", "-1"},
      {"machine", "rows", "-1"},
      {"machine", "cols", "-1"},
      {"machine", "blocks", "-1"},
      {"machine", "dram_row_switch_cycles", "-1"},
      {"mesh", "dram_row_switch_cycles", "-1"},
      {"mesh", "elements_per_packet", "4294967296"},
      {"mesh", "t_p", "4294967296"},
      {"fault", "seed", "-1"},
      {"fault", "dead_wavelengths", "3 -1"},
      {"fault", "dead_wavelengths", "4294967296"},
      {"fault", "brownout_start_word", "-1"},
      {"fault", "brownout_words", "-1"},
      {"reliability", "block_words", "-1"},
      {"reliability", "max_retries", "-1"},
      {"reliability", "backoff_slots", "-1"},
      {"reliability", "spare_lanes", "-1"},
      {"reliability", "training_words", "-1"},
      {"mesh", "buffer_depth", "-1"},
      {"mesh", "elements_per_packet", "0"},
      {"mesh", "grid", "-1"},
      {"mesh", "virtual_channels", "4294967297"},
      {"mesh", "buffer_depth", "4294967298"},
      {"mesh", "t_p", "-1"},
      {"mesh", "grid", "4294967296"},  // grid^2 wraps to 0 processors: SIGFPE
  };
  for (const Row& row : rows) {
    const std::string text = std::string("[experiment]\nkind = transpose\n") +
                             "[" + row.section + "]\n" + row.key + " = " +
                             row.value + "\n";
    try {
      const ExperimentSpec spec = spec_from_config(IniConfig::parse(text));
      const core::MeshMachine machine(spec.mesh);
      ADD_FAILURE() << row.section << "." << row.key << " = " << row.value
                    << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(row.key), std::string::npos)
          << e.what();
    }
  }
}

// Every key the schema declares, fed hostile values: the only allowed
// outcomes are a run-ready spec holding the value as written, or a
// ConfigError naming the key — never another exception, a silently wrapped
// count, or a value the schema calls bad. [sweep] knobs are range-checked
// as each point applies them, so the grid is expanded too.
TEST(SpecFromConfig, HostileValuesForEveryKeyAreConfigErrors) {
  const ConfigSchema schema = sim_config_schema();
  const auto& sections = schema.keys();
  // A [sweep] knob counts like the INI key of the same name.
  const auto integral = [&sections](const std::string& key) {
    for (const auto& [section, keys] : sections) {
      const auto it = keys.find(key);
      if (it != keys.end() && (it->second == ConfigSchema::Type::kInt ||
                               it->second == ConfigSchema::Type::kIntList)) {
        return true;
      }
    }
    return false;
  };
  const std::string hostile[] = {"-1",  "4294967296", "18446744073709551616",
                                 "1.5", "x",          "4 x 8"};
  std::size_t rejected = 0;
  for (const auto& [section, keys] : sections) {
    for (const auto& [key, type] : keys) {
      for (const std::string& value : hostile) {
        const IniConfig cfg =
            IniConfig::parse("[" + section + "]\n" + key + " = " + value);
        const bool schema_bad = !schema.validate(cfg).empty();
        // Only 2^32 fits some integer keys (the 64-bit counts and seeds).
        const bool must_reject =
            schema_bad || (integral(key) && value != "4294967296");
        const std::string what = section + "." + key + " = " + value;
        try {
          (void)SweepEngine::expand(spec_from_config(cfg));
          EXPECT_FALSE(must_reject) << what << " was accepted";
        } catch (const ConfigError& e) {
          ++rejected;
          EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
              << what << ": " << e.what();
        } catch (const std::exception& e) {
          ADD_FAILURE() << what << ": untyped " << e.what();
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SweepEngine, MapUsesThePoolAndPreservesOrder) {
  SweepEngine engine(4);
  std::vector<int> items(64);
  for (int i = 0; i < 64; ++i) items[i] = i;
  std::atomic<int> calls{0};
  const auto out = engine.map(items, [&](int v) {
    calls.fetch_add(1);
    return v * v;
  });
  EXPECT_EQ(calls.load(), 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepEngine, MapRethrowsFirstExceptionByIndex) {
  SweepEngine engine(4);
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  try {
    (void)engine.map(items, [](int v) {
      if (v == 3 || v == 6) throw SimulationError("boom " + std::to_string(v));
      return v;
    });
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

// The determinism contract: an N-point sweep renders byte-identically
// whether it ran serially or on a pool, because seeds come from the grid
// index and records land in grid order.
TEST(SweepEngine, ParallelSweepBitIdenticalToSerial) {
  auto spec = small_spec("fft2d");
  spec.with_mesh = true;
  spec.axes.push_back({"blocks", {1, 2, 4}});
  spec.axes.push_back({"processors", {4, 8}});

  auto serial = spec;
  serial.threads = 1;
  auto pooled = spec;
  pooled.threads = 4;
  const auto a = Runner::run(serial);
  const auto b = Runner::run(pooled);

  EXPECT_EQ(sweep_table(a, "t"), sweep_table(b, "t"));
  EXPECT_EQ(sweep_json(a), sweep_json(b));
  EXPECT_EQ(sweep_csv(a), sweep_csv(b));
}

// Same contract under fault injection + retry: the injection RNG is seeded
// from the machine params, and the input RNG from the point seed, so the
// error/retry counters cannot depend on thread scheduling.
TEST(SweepEngine, ParallelReliabilitySweepBitIdenticalToSerial) {
  auto spec = small_spec("reliability");
  spec.machine.fault.dead_wavelengths = {13};
  spec.machine.fault.seed = 7;
  spec.machine.reliability.policy = reliability::ReliabilityPolicy::kCorrectRetry;
  spec.machine.reliability.spare_lanes = 2;
  spec.axes.push_back({"margin_db", {0.0, -1.5, -2.5}});

  auto serial = spec;
  serial.threads = 1;
  auto pooled = spec;
  pooled.threads = 4;
  const auto a = Runner::run(serial);
  const auto b = Runner::run(pooled);

  EXPECT_EQ(sweep_table(a, "t"), sweep_table(b, "t"));
  EXPECT_EQ(sweep_json(a), sweep_json(b));

  // Margin knob actually moved the injected BER across the axis.
  EXPECT_LT(metric(a.records[0], "ber"), metric(a.records[2], "ber"));
}

TEST(Runner, SingleRunCarriesFullReport) {
  auto spec = small_spec("fft2d");
  spec.with_mesh = true;
  const auto result = Runner::run(spec);
  const auto& rec = result.records.front();
  ASSERT_TRUE(rec.psync.has_value());
  ASSERT_TRUE(rec.mesh.has_value());
  EXPECT_GT(rec.psync->total_ns, 0.0);
  EXPECT_NEAR(metric(rec, "total_us"), rec.psync->total_ns * 1e-3, 1e-9);
  EXPECT_LT(rec.psync->max_error_vs_reference, 1e-6);
}

TEST(PlanCache, ReturnsTheSameInstancePerSize) {
  const auto& a = fft::shared_plan(64);
  const auto& b = fft::shared_plan(64);
  const auto& c = fft::shared_plan(128);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(c.size(), 128u);
  EXPECT_GE(fft::shared_plan_cache_size(), 2u);
}

TEST(PlanCache, ConcurrentLookupsAgree) {
  constexpr int kThreads = 8;
  std::vector<const fft::FftPlan*> seen(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] { seen[t] = &fft::shared_plan(512); });
  }
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
}

TEST(PlanCache, RejectsInvalidSizes) {
  EXPECT_THROW((void)fft::shared_plan(0), SimulationError);
  EXPECT_THROW((void)fft::shared_plan(96), SimulationError);
}

}  // namespace
}  // namespace psync::driver
