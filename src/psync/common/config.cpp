#include "psync/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "psync/common/check.hpp"

namespace psync {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// The one parse rule per value type, shared by the typed accessors and
// ConfigSchema::validate: the whole token must parse.
std::optional<std::int64_t> to_int(const std::string& s) {
  try {
    std::size_t used = 0;
    const std::int64_t out = std::stoll(s, &used, 0);
    if (used == s.size()) return out;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

std::optional<double> to_double(const std::string& s) {
  try {
    std::size_t used = 0;
    const double out = std::stod(s, &used);
    if (used == s.size()) return out;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

std::optional<bool> to_bool(const std::string& s) {
  const std::string low = lower(s);
  if (low == "true" || low == "yes" || low == "on" || low == "1") return true;
  if (low == "false" || low == "no" || low == "off" || low == "0") return false;
  return std::nullopt;
}

// Whitespace-separated tokens, at least one, each parsed by `to`.
template <typename T>
std::optional<std::vector<T>> to_list(
    const std::string& s, std::optional<T> (*to)(const std::string&)) {
  const char* ws = " \t\n\v\f\r";
  std::vector<T> out;
  for (auto b = s.find_first_not_of(ws); b != std::string::npos;) {
    const auto e = s.find_first_of(ws, b);
    const auto item = to(s.substr(b, e - b));
    if (!item) return std::nullopt;
    out.push_back(*item);
    b = s.find_first_not_of(ws, e);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

// `parsed`, or a ConfigError naming `section.key` and its raw value.
template <typename T>
T require(std::optional<T> parsed, const std::string& section,
          const std::string& key, const std::string& raw, const char* what) {
  if (!parsed) {
    throw ConfigError("IniConfig: '" + section + "." + key + "' is not " +
                      what + ": " + raw);
  }
  return std::move(*parsed);
}

}  // namespace

IniConfig IniConfig::parse(const std::string& text) {
  IniConfig cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError("IniConfig: malformed section at line " +
                          std::to_string(lineno));
      }
      section = trim(line.substr(1, line.size() - 2));
      if (!cfg.data_.count(section)) {
        cfg.data_[section] = {};
        cfg.section_order_.push_back(section);
        cfg.key_order_[section] = {};
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("IniConfig: expected 'key = value' at line " +
                        std::to_string(lineno));
    }
    if (section.empty()) {
      throw ConfigError("IniConfig: key outside any section at line " +
                        std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("IniConfig: empty key at line " +
                        std::to_string(lineno));
    }
    auto& sec = cfg.data_[section];
    if (sec.count(key)) {
      throw ConfigError("IniConfig: duplicate key '" + key +
                        "' at line " + std::to_string(lineno));
    }
    sec[key] = value;
    cfg.key_order_[section].push_back(key);
  }
  return cfg;
}

IniConfig IniConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SimulationError("IniConfig: cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

bool IniConfig::has_section(const std::string& section) const {
  return data_.count(section) > 0;
}

bool IniConfig::has(const std::string& section, const std::string& key) const {
  const auto it = data_.find(section);
  return it != data_.end() && it->second.count(key) > 0;
}

std::vector<std::string> IniConfig::sections() const { return section_order_; }

std::vector<std::string> IniConfig::keys(const std::string& section) const {
  const auto it = key_order_.find(section);
  return it != key_order_.end() ? it->second : std::vector<std::string>{};
}

std::optional<std::string> IniConfig::get(const std::string& section,
                                          const std::string& key) const {
  const auto it = data_.find(section);
  if (it == data_.end()) return std::nullopt;
  const auto kit = it->second.find(key);
  if (kit == it->second.end()) return std::nullopt;
  return kit->second;
}

std::string IniConfig::get_string(const std::string& section,
                                  const std::string& key,
                                  const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

std::int64_t IniConfig::get_int(const std::string& section,
                                const std::string& key,
                                std::int64_t fallback) const {
  const auto v = get(section, key);
  return v ? require(to_int(*v), section, key, *v, "an integer") : fallback;
}

double IniConfig::get_double(const std::string& section,
                             const std::string& key, double fallback) const {
  const auto v = get(section, key);
  return v ? require(to_double(*v), section, key, *v, "a number") : fallback;
}

bool IniConfig::get_bool(const std::string& section, const std::string& key,
                         bool fallback) const {
  const auto v = get(section, key);
  return v ? require(to_bool(*v), section, key, *v, "a boolean") : fallback;
}

std::vector<std::int64_t> IniConfig::get_ints(const std::string& section,
                                              const std::string& key) const {
  const auto v = get(section, key);
  if (!v) return {};
  return require(to_list(*v, to_int), section, key, *v, "an integer list");
}

std::vector<double> IniConfig::get_doubles(const std::string& section,
                                           const std::string& key) const {
  const auto v = get(section, key);
  if (!v) return {};
  return require(to_list(*v, to_double), section, key, *v, "a number list");
}

namespace {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Nearest candidate within an edit distance small enough to be a typo.
template <typename Range>
std::string suggest(const std::string& name, const Range& candidates) {
  std::string best;
  std::size_t best_d = name.size() / 2 + 2;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

bool parses_as(ConfigSchema::Type type, const std::string& value) {
  switch (type) {
    case ConfigSchema::Type::kString:
      return true;
    case ConfigSchema::Type::kInt:
      return to_int(value).has_value();
    case ConfigSchema::Type::kDouble:
      return to_double(value).has_value();
    case ConfigSchema::Type::kBool:
      return to_bool(value).has_value();
    case ConfigSchema::Type::kIntList:
      return to_list(value, to_int).has_value();
    case ConfigSchema::Type::kDoubleList:
      return to_list(value, to_double).has_value();
  }
  return false;
}

const char* type_name(ConfigSchema::Type type) {
  switch (type) {
    case ConfigSchema::Type::kString: return "string";
    case ConfigSchema::Type::kInt: return "integer";
    case ConfigSchema::Type::kDouble: return "number";
    case ConfigSchema::Type::kBool: return "boolean";
    case ConfigSchema::Type::kIntList: return "integer list";
    case ConfigSchema::Type::kDoubleList: return "number list";
  }
  return "?";
}

}  // namespace

std::string ConfigDiagnostic::to_string() const {
  switch (kind) {
    case Kind::kUnknownSection:
      return "unknown section [" + section + "]: " + message;
    case Kind::kUnknownKey:
      return "unknown key '" + section + "." + key + "': " + message;
    case Kind::kBadValue:
      return "bad value for '" + section + "." + key + "': " + message;
  }
  return message;
}

ConfigSchema& ConfigSchema::section(const std::string& name) {
  schema_[name];
  return *this;
}

ConfigSchema& ConfigSchema::key(const std::string& section,
                                const std::string& name, Type type) {
  schema_[section][name] = type;
  return *this;
}

std::vector<ConfigDiagnostic> ConfigSchema::validate(
    const IniConfig& cfg) const {
  std::vector<ConfigDiagnostic> out;
  std::vector<std::string> section_names;
  for (const auto& [name, keys] : schema_) section_names.push_back(name);

  for (const auto& sec : cfg.sections()) {
    const auto sit = schema_.find(sec);
    if (sit == schema_.end()) {
      ConfigDiagnostic d;
      d.kind = ConfigDiagnostic::Kind::kUnknownSection;
      d.section = sec;
      const auto near = suggest(sec, section_names);
      d.message = near.empty() ? "not recognized"
                               : "not recognized; did you mean [" + near + "]?";
      out.push_back(std::move(d));
      continue;
    }
    std::vector<std::string> key_names;
    for (const auto& [name, type] : sit->second) key_names.push_back(name);
    for (const auto& key : cfg.keys(sec)) {
      const auto kit = sit->second.find(key);
      if (kit == sit->second.end()) {
        ConfigDiagnostic d;
        d.kind = ConfigDiagnostic::Kind::kUnknownKey;
        d.section = sec;
        d.key = key;
        const auto near = suggest(key, key_names);
        d.message = near.empty()
                        ? "not recognized"
                        : "not recognized; did you mean '" + near + "'?";
        out.push_back(std::move(d));
        continue;
      }
      const auto value = cfg.get(sec, key);
      if (value && !parses_as(kit->second, *value)) {
        ConfigDiagnostic d;
        d.kind = ConfigDiagnostic::Kind::kBadValue;
        d.section = sec;
        d.key = key;
        d.message = "expected " + std::string(type_name(kit->second)) +
                    ", got '" + *value + "'";
        out.push_back(std::move(d));
      }
    }
  }
  return out;
}

}  // namespace psync
