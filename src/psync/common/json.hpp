// The program's one JSON codec. Every JSON artifact goes through it: the
// checkpoint journal lines, the campaign-service frames, BENCH_psync.json
// and the compile_commands.json psync_lint reads.
//
// Writer side: json_escape / json_string. Numbers are formatted by each
// writer itself (%.17g for round-trip storage, %.6f or iostream precision
// for display), because those formats differ on purpose.
//
// Reader side: JsonReader, a strict pull cursor over a string_view. The
// caller drives it in the shape it expects (eat('{'), string(&key),
// eat(':'), ...). A failed call returns false and records the byte offset
// and a reason; the caller maps that to its own typed error. Strict means:
// RFC 8259 grammar (no leading zeros, no bare '.', no single quotes), no
// raw control bytes inside strings, \u surrogate pairs decoded to UTF-8 and
// lone surrogates rejected, u64 overflow rejected. The reader never reads
// past the end of the view and allocates nothing of its own beyond the
// nesting stack of skip_value, so it is cheap to construct per line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace psync {

/// Escape `s` for use between the quotes of a JSON string literal: '"' and
/// '\\' take a backslash, \n \r \t their short escapes, every other byte
/// below 0x20 becomes \u00xx, and all other bytes (UTF-8 included) pass
/// through unchanged.
std::string json_escape(std::string_view s);

/// json_escape(s) wrapped in double quotes: a complete JSON string literal.
std::string json_string(std::string_view s);

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}
  explicit JsonReader(const char* text) : text_(text) {}
  // The reader keeps a view: a temporary string would dangle.
  explicit JsonReader(std::string&&) = delete;

  /// Skip whitespace; consume `ch` when it comes next. On false only the
  /// whitespace has been consumed, so eat() doubles as a probe.
  bool eat(char ch);
  /// A string literal, decoded into `*out` (validated only when null).
  bool string(std::string* out);
  /// A non-negative integer literal that fits in 64 bits.
  bool u64(std::uint64_t* out);
  /// A number literal, correctly rounded; also the nan/inf tokens.
  bool number(double* out);
  bool boolean(bool* out);
  bool null();
  /// Validate and step over one value of any type.
  bool skip_value();
  /// skip_value(), then hand back the value's exact source bytes.
  bool raw_value(std::string* out);
  /// Skip whitespace; true when nothing else is left.
  bool at_end();

  /// The last failure: where it happened and why. Every failed call
  /// overwrites both; a failed call leaves the position unspecified
  /// (except eat, above), so callers stop at the first one that matters.
  [[nodiscard]] std::size_t error_offset() const { return error_offset_; }
  [[nodiscard]] const char* error() const { return error_; }

 private:
  bool fail(const char* reason);
  void skip_ws();
  bool take(char ch);  // consume `ch` if it is the very next byte
  bool digits();       // one or more ASCII digits
  bool literal(std::string_view word);
  template <typename T>
  bool read_number(T* out, const char* bad);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t error_offset_ = 0;
  const char* error_ = "";
};

}  // namespace psync
