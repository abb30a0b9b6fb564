#include "psync/serve/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <system_error>

#include "psync/common/json.hpp"

namespace psync::serve {

const char* to_string(Op op) {
  switch (op) {
    case Op::kSubmit: return "submit";
    case Op::kStatus: return "status";
    case Op::kResults: return "results";
    case Op::kSubscribe: return "subscribe";
    case Op::kCancel: return "cancel";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(FrameError err) {
  switch (err) {
    case FrameError::kNone: return "none";
    case FrameError::kEmpty: return "empty_frame";
    case FrameError::kNotJson: return "not_json";
    case FrameError::kBadString: return "bad_string";
    case FrameError::kBadValue: return "bad_value";
    case FrameError::kTrailingGarbage: return "trailing_garbage";
    case FrameError::kMissingOp: return "missing_op";
    case FrameError::kUnknownOp: return "unknown_op";
    case FrameError::kUnknownKey: return "unknown_key";
    case FrameError::kBadType: return "bad_type";
    case FrameError::kMissingField: return "missing_field";
    case FrameError::kBadCampaignId: return "bad_campaign_id";
  }
  return "?";
}

std::string campaign_id(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

bool parse_campaign_id(const std::string& s, std::uint64_t* out) {
  // Lowercase only: one canonical form.
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return false;
  }
  return std::from_chars(s.data(), s.data() + s.size(), *out, 16).ec ==
         std::errc();
}

std::string error_frame(const std::string& code, const std::string& message) {
  return "{\"ok\":false,\"error\":" + json_string(code) +
         ",\"message\":" + json_string(message) + "}";
}

FrameError parse_request(const std::string& line, Request* out) {
  JsonReader r(line);
  if (r.at_end()) return FrameError::kEmpty;
  if (!r.eat('{')) return FrameError::kNotJson;

  Request req;
  bool saw_op = false;
  std::string op_name;
  std::string campaign_text;
  bool saw_campaign = false;

  if (!r.eat('}')) {
    while (true) {
      std::string key;
      if (!r.string(&key)) return FrameError::kBadString;
      if (!r.eat(':')) return FrameError::kNotJson;
      if (key == "op") {
        if (!r.string(&op_name)) return FrameError::kBadType;
        saw_op = true;
      } else if (key == "config") {
        if (!r.string(&req.config)) return FrameError::kBadType;
      } else if (key == "campaign") {
        if (!r.string(&campaign_text)) return FrameError::kBadType;
        saw_campaign = true;
      } else if (key == "format") {
        if (!r.string(&req.format)) return FrameError::kBadType;
      } else if (key == "wait") {
        if (!r.boolean(&req.wait)) return FrameError::kBadType;
      } else if (key == "threads") {
        if (!r.u64(&req.threads)) return FrameError::kBadType;
      } else {
        return FrameError::kUnknownKey;
      }
      if (r.eat('}')) break;
      if (!r.eat(',')) return FrameError::kNotJson;
    }
  }
  if (!r.at_end()) return FrameError::kTrailingGarbage;

  if (!saw_op) return FrameError::kMissingOp;
  if (op_name == "submit") {
    req.op = Op::kSubmit;
  } else if (op_name == "status") {
    req.op = Op::kStatus;
  } else if (op_name == "results") {
    req.op = Op::kResults;
  } else if (op_name == "subscribe") {
    req.op = Op::kSubscribe;
  } else if (op_name == "cancel") {
    req.op = Op::kCancel;
  } else if (op_name == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    return FrameError::kUnknownOp;
  }

  if (req.op == Op::kSubmit && req.config.empty()) {
    return FrameError::kMissingField;
  }
  const bool needs_campaign = req.op == Op::kStatus ||
                              req.op == Op::kResults ||
                              req.op == Op::kSubscribe ||
                              req.op == Op::kCancel;
  if (needs_campaign) {
    if (!saw_campaign) return FrameError::kMissingField;
    if (!parse_campaign_id(campaign_text, &req.campaign)) {
      return FrameError::kBadCampaignId;
    }
    req.has_campaign = true;
  }
  if (req.op == Op::kResults && req.format != "json" &&
      req.format != "csv") {
    return FrameError::kBadValue;
  }

  *out = req;
  return FrameError::kNone;
}

namespace {

// Scan the outermost object of `json` for `key` and leave the reader at
// its value. Depth-aware so nested objects/arrays can't shadow a
// top-level field.
bool find_field(JsonReader* r, const std::string& key) {
  if (!r->eat('{') || r->eat('}')) return false;
  while (true) {
    std::string name;
    if (!r->string(&name) || !r->eat(':')) return false;
    if (name == key) return true;
    if (!r->skip_value() || r->eat('}') || !r->eat(',')) return false;
  }
}

}  // namespace

bool find_string_field(const std::string& json, const std::string& key,
                       std::string* out) {
  JsonReader r(json);
  return find_field(&r, key) && r.string(out);
}

bool find_u64_field(const std::string& json, const std::string& key,
                    std::uint64_t* out) {
  JsonReader r(json);
  return find_field(&r, key) && r.u64(out);
}

bool find_bool_field(const std::string& json, const std::string& key,
                     bool* out) {
  JsonReader r(json);
  return find_field(&r, key) && r.boolean(out);
}

}  // namespace psync::serve
