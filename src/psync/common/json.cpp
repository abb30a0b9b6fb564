#include "psync/common/json.hpp"

#include <algorithm>
#include <charconv>
#include <system_error>

namespace psync {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto ch = static_cast<unsigned char>(s[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[ch >> 4];
        out += "0123456789abcdef"[ch & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  return out;
}

std::string json_string(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

namespace {

// The four hex digits of a \u escape starting at text[pos].
bool hex4(std::string_view text, std::size_t pos, unsigned* out) {
  if (text.size() - pos < 4) return false;
  const char* end = text.data() + pos + 4;
  const auto [stop, ec] = std::from_chars(text.data() + pos, end, *out, 16);
  return ec == std::errc() && stop == end;
}

void append_utf8(std::string* out, unsigned cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
    return;
  }
  // Lead byte 110xxxxx / 1110xxxx / 11110xxx, then 10xxxxxx continuations.
  const unsigned extra = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  const unsigned lead = (0xFF00 >> (extra + 1)) & 0xFF;
  out->push_back(static_cast<char>(lead | (cp >> (6 * extra))));
  for (unsigned i = extra; i-- > 0;) {
    out->push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
  }
}

}  // namespace

bool JsonReader::fail(const char* reason) {
  error_offset_ = pos_;
  error_ = reason;
  return false;
}

void JsonReader::skip_ws() {
  pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_), text_.size());
}

bool JsonReader::take(char ch) {
  if (pos_ == text_.size() || text_[pos_] != ch) return false;
  ++pos_;
  return true;
}

bool JsonReader::digits() {
  const std::size_t from = pos_;
  pos_ = std::min(text_.find_first_not_of("0123456789", pos_), text_.size());
  return pos_ > from;
}

bool JsonReader::literal(std::string_view word) {
  if (text_.compare(pos_, word.size(), word) != 0) return false;
  pos_ += word.size();
  return true;
}

bool JsonReader::eat(char ch) {
  skip_ws();
  return take(ch) || fail(pos_ < text_.size() ? "unexpected character"
                                              : "unexpected end of input");
}

bool JsonReader::at_end() {
  skip_ws();
  return pos_ == text_.size() || fail("trailing input after the value");
}

bool JsonReader::string(std::string* out) {
  skip_ws();
  if (!take('"')) return fail("expected a string");
  if (out != nullptr) out->clear();
  std::size_t run = pos_;  // start of the pending run of verbatim bytes
  while (pos_ < text_.size()) {
    const auto ch = static_cast<unsigned char>(text_[pos_]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') {
      ++pos_;
      continue;
    }
    if (out != nullptr) out->append(text_.data() + run, pos_ - run);
    if (take('"')) return true;
    if (ch != '\\') return fail("raw control byte in string");
    if (++pos_ == text_.size()) break;
    char decoded = 0;
    switch (text_[pos_]) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        unsigned cp = 0;
        if (!hex4(text_, pos_ + 1, &cp)) return fail("bad \\u escape");
        pos_ += 5;
        if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("lone low surrogate");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          unsigned lo = 0;
          if (text_.compare(pos_, 2, "\\u") != 0 ||
              !hex4(text_, pos_ + 2, &lo) || lo < 0xDC00 || lo > 0xDFFF) {
            return fail("lone high surrogate");
          }
          pos_ += 6;
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        if (out != nullptr) append_utf8(out, cp);
        run = pos_;
        continue;
      }
      default: return fail("bad escape");
    }
    if (out != nullptr) out->push_back(decoded);
    run = ++pos_;
  }
  return fail("unterminated string");
}

template <typename T>
bool JsonReader::read_number(T* out, const char* bad) {
  skip_ws();
  const std::size_t start = pos_;
  take('-');
  // %.17g and iostream spell non-finite doubles nan / -nan / inf / -inf.
  // No writer proves its metrics finite, and the journal must read back
  // whatever a finished point recorded, so these tokens stay accepted.
  if (!literal("nan") && !literal("inf")) {
    if (!take('0') && !digits()) {
      pos_ = start;
      return fail("expected a number");
    }
    if (take('.') && !digits()) return fail("expected a fraction digit");
    if (take('e') || take('E')) {
      if (!take('+')) take('-');
      if (!digits()) return fail("expected an exponent digit");
    }
  }
  // libstdc++'s from_chars rounds doubles correctly (the %.17g round trip
  // needs that), keeps denormals, and reports overflow as out of range.
  T v{};
  const char* end = text_.data() + pos_;
  const auto [stop, ec] = std::from_chars(text_.data() + start, end, v);
  if (ec == std::errc() && stop == end) {
    *out = v;
    return true;
  }
  pos_ = start;  // name the whole token in the error
  return fail(ec == std::errc::result_out_of_range ? "number out of range"
                                                   : bad);
}

bool JsonReader::u64(std::uint64_t* out) {
  return read_number(out, "expected an unsigned integer");
}

bool JsonReader::number(double* out) {
  return read_number(out, "expected a number");
}

bool JsonReader::boolean(bool* out) {
  skip_ws();
  if (literal("true")) {
    *out = true;
  } else if (literal("false")) {
    *out = false;
  } else {
    return fail("expected true or false");
  }
  return true;
}

bool JsonReader::null() {
  skip_ws();
  return literal("null") || fail("expected null");
}

bool JsonReader::skip_value() {
  // Iterative, so nesting depth is bounded by memory rather than by the
  // stack: the readers face fuzzed and truncated input.
  std::string closers;  // the open containers' closing brackets
  while (true) {
    // A value starts here: open a container or step over a scalar.
    if (eat('{') || eat('[')) {
      const char close = text_[pos_ - 1] == '{' ? '}' : ']';
      if (!eat(close)) {
        closers.push_back(close);
        if (close == '}' && !(string(nullptr) && eat(':'))) return false;
        continue;
      }
    } else if (!literal("true") && !literal("false") && !literal("null")) {
      const bool quoted = pos_ < text_.size() && text_[pos_] == '"';
      double ignored = 0.0;
      if (!(quoted ? string(nullptr) : number(&ignored))) return false;
    }
    // A value ended: close what it ends, then expect the next element.
    while (!closers.empty() && eat(closers.back())) closers.pop_back();
    if (closers.empty()) return true;
    if (!eat(',')) return fail("expected ',' or a closing bracket");
    if (closers.back() == '}' && !(string(nullptr) && eat(':'))) {
      return false;
    }
  }
}

bool JsonReader::raw_value(std::string* out) {
  skip_ws();
  const std::size_t start = pos_;
  if (!skip_value()) return false;
  out->assign(text_.substr(start, pos_ - start));
  return true;
}

}  // namespace psync
