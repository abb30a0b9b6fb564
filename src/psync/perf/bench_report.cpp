#include "psync/perf/bench_report.hpp"

#include <cstdio>

#include "psync/common/check.hpp"
#include "psync/common/json.hpp"

namespace psync::perf {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// Every reader failure becomes the module's typed error.
void need(const JsonReader& r, bool ok) {
  if (!ok) {
    throw SimulationError("bench report parse error at offset " +
                          std::to_string(r.error_offset()) + ": " +
                          r.error());
  }
}

BenchEntry parse_entry(JsonReader* r) {
  BenchEntry e;
  need(*r, r->eat('{'));
  if (!r->eat('}')) {
    do {
      std::string key;
      need(*r, r->string(&key) && r->eat(':'));
      if (key == "name") {
        need(*r, r->string(&e.name));
      } else if (key == "wall_ms") {
        need(*r, r->number(&e.wall_ms));
      } else if (key == "min_iter_ms") {
        need(*r, r->number(&e.min_iter_ms));
      } else if (key == "iters") {
        need(*r, r->u64(&e.iters));
      } else if (key == "events") {
        need(*r, r->u64(&e.events));
      } else if (key == "note") {
        need(*r, r->string(&e.note));
      } else {
        need(*r, r->skip_value());  // per_iter_ms / events_per_sec are derived
      }
    } while (r->eat(','));
    need(*r, r->eat('}'));
  }
  if (e.name.empty()) {
    throw SimulationError("bench report parse error: entry without a name");
  }
  return e;
}

}  // namespace

const BenchEntry* BenchReport::find(const std::string& name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string bench_report_json(const BenchReport& report) {
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(report.schema_version) +
         ",\n";
  out += std::string("  \"quick\": ") + (report.quick ? "true" : "false") +
         ",\n";
  out += "  \"benchmarks\": [";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& e = report.entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + json_string(e.name);
    out += ", \"wall_ms\": " + fmt_double(e.wall_ms);
    out += ", \"iters\": " + std::to_string(e.iters);
    out += ", \"per_iter_ms\": " + fmt_double(e.per_iter_ms());
    if (e.min_iter_ms > 0.0) {
      out += ", \"min_iter_ms\": " + fmt_double(e.min_iter_ms);
    }
    if (e.events > 0) {
      out += ", \"events\": " + std::to_string(e.events);
      out += ", \"events_per_sec\": " + fmt_double(e.events_per_sec());
    }
    if (!e.note.empty()) {
      out += ", \"note\": " + json_string(e.note);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

BenchReport parse_bench_report(const std::string& json) {
  BenchReport report;
  JsonReader r(json);
  need(r, r.eat('{'));
  if (!r.eat('}')) {
    do {
      std::string key;
      need(r, r.string(&key) && r.eat(':'));
      if (key == "schema_version") {
        std::uint64_t version = 0;
        need(r, r.u64(&version));
        report.schema_version = static_cast<int>(version);
      } else if (key == "quick") {
        need(r, r.boolean(&report.quick));
      } else if (key == "benchmarks") {
        need(r, r.eat('['));
        if (!r.eat(']')) {
          do {
            report.entries.push_back(parse_entry(&r));
          } while (r.eat(','));
          need(r, r.eat(']'));
        }
      } else {
        need(r, r.skip_value());
      }
    } while (r.eat(','));
    need(r, r.eat('}'));
  }
  need(r, r.at_end());
  return report;
}

std::string BenchComparison::table() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-32s %14s %14s %9s\n", "benchmark",
                "baseline_ms", "current_ms", "change");
  out += buf;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-32s %14.3f %14.3f %+8.1f%%%s\n",
                  r.name.c_str(), r.baseline_ms, r.current_ms, r.change_pct,
                  r.regressed ? "  REGRESSED" : "");
    out += buf;
  }
  for (const auto& name : missing) {
    std::snprintf(buf, sizeof(buf), "%-32s %14s (not re-run)\n", name.c_str(),
                  "-");
    out += buf;
  }
  return out;
}

BenchComparison compare_bench_reports(const BenchReport& baseline,
                                      const BenchReport& current,
                                      double max_regress_pct) {
  BenchComparison cmp;
  for (const auto& base : baseline.entries) {
    const BenchEntry* cur = current.find(base.name);
    if (cur == nullptr) {
      cmp.missing.push_back(base.name);
      continue;
    }
    BenchDelta d;
    d.name = base.name;
    d.baseline_ms = base.best_iter_ms();
    d.current_ms = cur->best_iter_ms();
    d.change_pct = d.baseline_ms > 0.0
                       ? 100.0 * (d.current_ms - d.baseline_ms) / d.baseline_ms
                       : 0.0;
    d.regressed = d.change_pct > max_regress_pct &&
                  d.current_ms - d.baseline_ms > kMinAbsDeltaMs;
    if (d.regressed) cmp.ok = false;
    cmp.rows.push_back(d);
  }
  return cmp;
}

}  // namespace psync::perf
