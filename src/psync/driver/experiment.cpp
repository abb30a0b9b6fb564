#include "psync/driver/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "psync/common/check.hpp"

namespace psync::driver {

namespace {

using enum ConfigSchema::Type;

constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
static_assert(std::numeric_limits<std::size_t>::max() == kU64);
// A grid's grid^2 mesh node ids must fit in 32 bits.
constexpr std::uint64_t kMaxGrid = 65535;

// Knob names the legacy kinds also use as their axis, and the section
// whose every key is a knob's axis (also the legacy one-knob kind).
constexpr const char* kProcessors = "processors";
constexpr const char* kMarginDb = "margin_db";
constexpr const char* kSweep = "sweep";

// What a setter writes: the spec being read, or for a sweep knob only a
// point's parameter blocks (spec is null). The legacy kinds' keys land in
// the last four fields, folded into the workload and an axis at the end.
struct Target {
  core::PsyncMachineParams& machine;
  core::MeshMachineParams& mesh;
  ExperimentSpec* spec;
  std::string workload = "fft2d";
  std::string vary = kProcessors;
  std::vector<double> values = {};
  std::vector<double> margins_db = {};
};

// One value, parsed as its key's type and range-checked.
struct Value {
  std::string text;          // kString
  std::uint64_t count = 0;   // kInt
  double number = 0.0;       // kDouble
  bool flag = false;         // kBool
  std::vector<double> list;  // kIntList, kDoubleList
  std::uint32_t u32() const { return static_cast<std::uint32_t>(count); }
};

// One row of the config surface: an INI key, a sweep knob, or both.
struct Key {
  const char* section;  // nullptr: a knob with no INI key
  const char* name;
  ConfigSchema::Type type;
  bool knob;                           // also a [sweep] knob of this name
  void (*set)(Target&, const Value&);  // nullptr: read elsewhere
  std::uint64_t lo = 0;                // integer range (kInt, kIntList)
  std::uint64_t hi = kU64;
};

void set_blocks(Target& t, const Value& v) {
  t.machine.delivery_blocks = v.count;
}

// Every INI key and sweep knob, described once. Rows apply in order: kind
// before verify (kind = sweep turns verify off unless it is set), and
// [fault] margin_db before the keys it would otherwise overwrite.
constexpr Key kKeys[] = {
    {"experiment", "kind", kString, false,
     [](auto& t, auto& v) {
       t.spec->workload = v.text;
       if (v.text == kSweep) t.spec->verify = false;
     }},
    {"experiment", "workload", kString, false,
     [](auto& t, auto& v) { t.workload = v.text; }},
    {"experiment", "json", kBool, false, nullptr},  // psync_sim flags
    {"experiment", "csv", kBool, false, nullptr},
    {"experiment", "verify", kBool, false,
     [](auto& t, auto& v) { t.spec->verify = v.flag; }},
    {"experiment", "strict", kBool, false, nullptr},
    {"experiment", "elements", kInt, false,
     [](auto& t, auto& v) { t.spec->transpose_elements = v.u32(); }, 0, kU32},
    {"experiment", "input_seed", kInt, false,
     [](auto& t, auto& v) { t.spec->input_seed = v.count; }},
    {"experiment", "threads", kInt, false,  // 0 means serial, as 1 does
     [](auto& t, auto& v) {
       t.spec->threads = std::max<std::size_t>(v.count, 1);
     }},
    {"experiment", "vary", kString, false,
     [](auto& t, auto& v) { t.vary = v.text; }},
    {"experiment", "values", kDoubleList, false,
     [](auto& t, auto& v) { t.values = v.list; }},
    {"experiment", "margins_db", kDoubleList, false,
     [](auto& t, auto& v) { t.margins_db = v.list; }},
    {"experiment", "journal", kString, false,
     [](auto& t, auto& v) { t.spec->journal_path = v.text; }},

    {"guard", "isolate", kBool, false,
     [](auto& t, auto& v) { t.spec->guard.isolate = v.flag; }},
    {"guard", "max_retries", kInt, false,
     [](auto& t, auto& v) { t.spec->guard.max_retries = v.count; }},
    {"guard", "point_timeout_ms", kDouble, false,
     [](auto& t, auto& v) { t.spec->guard.point_timeout_ms = v.number; }},
    {"guard", "retry_backoff_ms", kDouble, false,
     [](auto& t, auto& v) { t.spec->guard.retry_backoff_ms = v.number; }},
    // MiB; the OOM gate scales it to bytes, which must not wrap.
    {"guard", "max_point_mb", kInt, false,
     [](auto& t, auto& v) { t.spec->guard.max_point_mb = v.count; }, 0,
     kU64 >> 20},

    {"machine", kProcessors, kInt, true,
     [](auto& t, auto& v) { t.machine.processors = v.count; }},
    {"machine", "rows", kInt, true,
     [](auto& t, auto& v) {
       t.machine.matrix_rows = t.mesh.matrix_rows = v.count;
     }},
    {"machine", "cols", kInt, true,
     [](auto& t, auto& v) {
       t.machine.matrix_cols = t.mesh.matrix_cols = v.count;
     }},
    {"machine", "blocks", kInt, true, set_blocks, 1},
    {nullptr, "k", kInt, true, set_blocks, 1},  // the fig11 name for blocks
    {"machine", "waveguide_gbps", kDouble, true,
     [](auto& t, auto& v) { t.machine.waveguide_gbps = v.number; }},
    {"machine", "bus_length_cm", kDouble, true,
     [](auto& t, auto& v) { t.machine.bus_length_cm = v.number; }},
    {"machine", "dram_row_switch_cycles", kInt, false,
     [](auto& t, auto& v) { t.machine.head.dram.row_switch_cycles = v.count; }},

    {"mesh", "grid", kInt, true,
     [](auto& t, auto& v) { t.mesh.grid = v.count; }, 0, kMaxGrid},
    {"mesh", "t_p", kInt, true,
     [](auto& t, auto& v) { t.mesh.mi.reorder_cycles_per_element = v.u32(); },
     0, kU32},
    {"mesh", "elements_per_packet", kInt, true,
     [](auto& t, auto& v) { t.mesh.elements_per_packet = v.u32(); }, 0, kU32},
    {"mesh", "overlap_stages", kBool, false,
     [](auto& t, auto& v) { t.mesh.mi.overlap_stages = v.flag; }},
    {"mesh", "buffer_depth", kInt, false,
     [](auto& t, auto& v) { t.mesh.net.buffer_depth = v.u32(); }, 1,
     mesh::kMaxBufferDepth},
    {"mesh", "virtual_channels", kInt, true,
     [](auto& t, auto& v) { t.mesh.net.virtual_channels = v.u32(); }, 1,
     mesh::kMaxVirtualChannels},
    {"mesh", "dram_row_switch_cycles", kInt, false,
     [](auto& t, auto& v) { t.mesh.mi.dram.row_switch_cycles = v.count; }},

    // Only the base BER follows the optical margin; the dead lanes, seed
    // and time-varying profile stay as configured.
    {"fault", kMarginDb, kDouble, true,
     [](auto& t, auto& v) {
       t.machine.fault.random_ber =
           core::FaultModel::from_margin_db(v.number).random_ber;
     }},
    {"fault", "random_ber", kDouble, false,
     [](auto& t, auto& v) { t.machine.fault.random_ber = v.number; }},
    {"fault", "seed", kInt, false,
     [](auto& t, auto& v) { t.machine.fault.seed = v.count; }},
    {"fault", "dead_wavelengths", kIntList, false,
     [](auto& t, auto& v) {
       t.machine.fault.dead_wavelengths.assign(v.list.begin(), v.list.end());
     },
     0, kU32},
    {"fault", "drift_ber_per_mword", kDouble, true,
     [](auto& t, auto& v) { t.machine.fault.drift_ber_per_mword = v.number; }},
    {"fault", "brownout_start_word", kInt, false,
     [](auto& t, auto& v) { t.machine.fault.brownout_start_word = v.count; }},
    {"fault", "brownout_words", kInt, false,
     [](auto& t, auto& v) { t.machine.fault.brownout_words = v.count; }},
    {"fault", "brownout_ber", kDouble, true,
     [](auto& t, auto& v) { t.machine.fault.brownout_ber = v.number; }},

    {"reliability", "policy", kString, false,
     [](auto& t, auto& v) {
       t.machine.reliability.policy = reliability::policy_from_string(v.text);
     }},
    {"reliability", "block_words", kInt, false,
     [](auto& t, auto& v) { t.machine.reliability.block_words = v.count; }},
    {"reliability", "max_retries", kInt, false,
     [](auto& t, auto& v) { t.machine.reliability.max_retries = v.count; }},
    {"reliability", "backoff_slots", kInt, false,
     [](auto& t, auto& v) {
       t.machine.reliability.retry_backoff_slots = v.count;
     }},
    {"reliability", "spare_lanes", kInt, false,
     [](auto& t, auto& v) { t.machine.reliability.spare_lanes = v.count; }},
    {"reliability", "training_words", kInt, false,
     [](auto& t, auto& v) { t.machine.reliability.training_words = v.count; }},

    // The fig13 workload reads it from the point's knob list.
    {nullptr, "cores", kInt, true, nullptr, 1},
};

// The one range rule for every integer, from an INI `section` or, when
// that is null, a sweep knob. Cast straight to an unsigned field, a
// negative, fractional or oversized value would wrap or truncate, and the
// run would report a value it never simulated. long double holds every
// int64 and uint64 exactly.
static_assert(std::numeric_limits<long double>::digits >= 64);
std::uint64_t count(const char* section, const std::string& name,
                    long double value, const Key& key) {
  if (!(value >= key.lo && value <= key.hi) || std::floor(value) != value) {
    char got[48];
    std::snprintf(got, sizeof(got), "%.17Lg", value);
    throw ConfigError(
        (section != nullptr ? "'" + std::string(section) + "." + name + "'"
                            : "knob '" + name + "'") +
        " must be an integer in [" + std::to_string(key.lo) + ", " +
        std::to_string(key.hi) + "]; got " + got);
  }
  return static_cast<std::uint64_t>(value);
}

// `key`'s value in `cfg`, read by the INI accessor for its type: the rule
// the schema checks, so a value it calls bad is a ConfigError naming the
// key here too.
Value read(const IniConfig& cfg, const Key& key, const std::string& name) {
  const char* s = key.section;  // fits std::string's inline buffer
  Value v;
  if (key.type == kString) v.text = cfg.get_string(s, name, "");
  if (key.type == kBool) v.flag = cfg.get_bool(s, name, false);
  if (key.type == kDouble) v.number = cfg.get_double(s, name, 0.0);
  if (key.type == kInt) v.count = count(s, name, cfg.get_int(s, name, 0), key);
  if (key.type == kDoubleList) v.list = cfg.get_doubles(s, name);
  if (key.type == kIntList) {
    for (const std::int64_t item : cfg.get_ints(s, name)) {
      v.list.push_back(static_cast<double>(count(s, name, item, key)));
    }
  }
  return v;
}

}  // namespace

bool apply_knob(const std::string& knob, double value,
                core::PsyncMachineParams* machine,
                core::MeshMachineParams* mesh) {
  const auto key =
      std::find_if(std::begin(kKeys), std::end(kKeys),
                   [&knob](const Key& k) { return k.knob && knob == k.name; });
  if (key == std::end(kKeys)) return false;
  Value v;
  v.number = value;
  if (key->type == kInt) v.count = count(nullptr, knob, value, *key);
  Target target{*machine, *mesh, nullptr};
  if (key->set != nullptr) key->set(target, v);
  return true;
}

std::vector<std::string> known_knobs() {
  std::vector<std::string> out;
  for (const Key& key : kKeys) {
    if (key.knob) out.emplace_back(key.name);
  }
  return out;
}

ExperimentSpec spec_from_config(const IniConfig& cfg) {
  ExperimentSpec spec;
  // A config's DRAMs switch rows for free unless it says otherwise.
  spec.machine.head.dram.row_switch_cycles = 0;
  spec.mesh.mi.dram.row_switch_cycles = 0;
  spec.with_mesh = cfg.has_section("mesh");
  Target target{spec.machine, spec.mesh, &spec};
  for (const Key& key : kKeys) {
    if (key.section == nullptr) continue;
    const std::string name = key.name;
    if (!cfg.has(key.section, name)) continue;
    const Value v = read(cfg, key, name);  // checked even when read elsewhere
    if (key.set != nullptr) key.set(target, v);
  }

  if (spec.workload == kSweep) {  // one knob, the 2D FFT machine
    spec.workload = target.workload;
    if (!target.values.empty()) {
      spec.axes.push_back({target.vary, std::move(target.values)});
    }
  } else if (spec.workload == "reliability_sweep") {
    if (target.margins_db.empty()) {
      throw ConfigError("reliability_sweep: missing 'margins_db' list");
    }
    spec.workload = "reliability";
    spec.axes.push_back({kMarginDb, std::move(target.margins_db)});
  }

  // Multi-knob grid: every key in [sweep] is an axis, in file order. Each
  // value passes its knob's check as a point applies it.
  for (const auto& knob : cfg.keys(kSweep)) {
    spec.axes.push_back({knob, cfg.get_doubles(kSweep, knob)});
  }
  return spec;
}

ConfigSchema sim_config_schema() {
  ConfigSchema s;
  for (const Key& key : kKeys) {
    if (key.section != nullptr) s.key(key.section, key.name, key.type);
    if (key.knob) s.key(kSweep, key.name, kDoubleList);
  }
  return s;
}

}  // namespace psync::driver
