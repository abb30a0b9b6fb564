// Minimal JSON writer for the benchmark's report (doubles at %.17g, so a
// value reaches the analysis with all its digits; a non-finite value is
// written as Python's json module spells it, so a broken statistic fails a
// check instead of the parse).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const std::string& k) {
    sep();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& value(double v) {
    sep();
    if (std::isnan(v)) {
      out_ += "NaN";  // what Python's json module reads back
    } else if (std::isinf(v)) {
      out_ += v > 0 ? "Infinity" : "-Infinity";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& value(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(std::int64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(const std::string& v) {
    sep();
    quote(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    sep();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (u < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", u);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench
